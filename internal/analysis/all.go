package analysis

// All returns the full codvet analyzer suite, in report order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, PolicyDecl, Layering, ErrWrap, NoPool}
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
