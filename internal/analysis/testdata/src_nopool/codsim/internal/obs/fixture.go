// Seeded-violation fixture for the nopool analyzer. This package shadows
// a real package (codsim/internal/obs) through the test overlay; every
// want comment below must be matched by a diagnostic, so gutting or
// deleting the nopool check fails the suite.
package obs

import "sync"

// badVarPool mints a package-level pool.
var badVarPool = sync.Pool{ // want `sync\.Pool in codsim/internal/obs`
	New: func() any { return new([]byte) },
}

// badLocalPool mints one inside a function body.
func badLocalPool() *sync.Pool { // want `sync\.Pool in codsim/internal/obs`
	p := &sync.Pool{} // want `sync\.Pool in codsim/internal/obs`
	return p
}

// badEmbedded carries a pool as a struct field.
type badEmbedded struct {
	scratch sync.Pool // want `sync\.Pool in codsim/internal/obs`
}

// goodMutex proves other sync members stay unflagged: the rule is about
// pools, not about the sync package.
type goodMutex struct {
	mu sync.Mutex
}

func (g *goodMutex) locked(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
	_ = badVarPool
	_ = badEmbedded{}
}
