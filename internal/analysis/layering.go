package analysis

import "strconv"

// Layering enforces the import-boundary table (Boundaries): cmd/ and
// examples/ stay on the public cod SDK instead of the backbone
// internals, examples/ assemble no rigs, and internal/dist stays headless.
// Exceptions go through the allowlist with the forbidden import path as
// the detail, so every boundary crossing is a documented decision.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "import-boundary table: cmd/ and examples/ must not import internal/cb, internal/wire or internal/transport; examples/ must not import internal/dynamics; internal/dist must not import display-side packages",
	Run:  runLayering,
}

func runLayering(pass *Pass) error {
	var rules []BoundaryRule
	for _, r := range Boundaries {
		if r.inScope(pass.Path) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			for _, r := range rules {
				if r.forbids(path) && !pass.Allowed(path) {
					pass.Reportf(imp.Pos(),
						"%s must not import %s (%s)", pass.Path, path, r.Reason)
				}
			}
		}
	}
	return nil
}
