// Command codvet runs the project-invariant analyzer suite
// (internal/analysis) over the module: determinism, policydecl,
// layering, errwrap and nopool — the conventions the simulator's
// correctness leans on, turned into a CI gate.
//
// Usage:
//
//	codvet [-list] [-allowlist] [-run name,name] [packages]
//
// With no package arguments (or "./...") every production package of
// the enclosing module is analyzed. Arguments may be import paths
// ("codsim/internal/dist") or module-relative directories
// ("./internal/dist"). Findings print as file:line:col: message
// (analyzer); any finding exits 1. Allowlisted exceptions live in
// internal/analysis/config.go, each with a written reason; AUDIT.md at
// the repository root is the consolidated record of the initial
// tree-wide run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"codsim/internal/analysis"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "codvet:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		list      = flag.Bool("list", false, "list the analyzers and exit")
		allowlist = flag.Bool("allowlist", false, "print the active allowlist and exit")
		runNames  = flag.String("run", "", "comma-separated analyzer names to run (default all)")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *allowlist {
		for _, e := range analysis.DefaultAllowlist {
			fmt.Printf("%s %s %s\n    reason: %s\n", e.Analyzer, e.Pkg, e.Detail, e.Reason)
		}
		return nil
	}

	analyzers := analysis.All()
	if *runNames != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*runNames, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				return fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			analyzers = append(analyzers, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	moduleDir, modulePath, err := analysis.FindModule(wd)
	if err != nil {
		return err
	}

	paths, err := selectPackages(moduleDir, modulePath, flag.Args())
	if err != nil {
		return err
	}

	loader := analysis.NewLoader(analysis.Config{ModulePath: modulePath, ModuleDir: moduleDir})
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
	}

	diags, err := analysis.Run(pkgs, analyzers, loader.Fset(), analysis.DefaultAllowlist)
	if err != nil {
		return err
	}
	for _, d := range diags {
		rel := d.Pos.Filename
		if r, err := filepath.Rel(moduleDir, rel); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "codvet: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	return nil
}

// selectPackages resolves the command-line package arguments to import
// paths; no arguments or "./..." selects the whole module, and a
// trailing "/..." selects a subtree ("./cmd/...").
func selectPackages(moduleDir, modulePath string, args []string) ([]string, error) {
	all := len(args) == 0
	for _, a := range args {
		if a == "./..." || a == "all" {
			all = true
		}
	}
	if all {
		return analysis.ModulePackages(moduleDir, modulePath)
	}
	var paths []string
	for _, a := range args {
		subtree := false
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			subtree = true
			a = rest
		}
		switch {
		case strings.HasPrefix(a, "./") || a == ".":
			rel := filepath.ToSlash(strings.TrimPrefix(a, "./"))
			if rel == "" || rel == "." {
				a = modulePath
			} else {
				a = modulePath + "/" + rel
			}
		case a == modulePath || strings.HasPrefix(a, modulePath+"/"):
			// already an import path
		default:
			return nil, fmt.Errorf("package %q is outside module %s", a, modulePath)
		}
		if subtree {
			mod, err := analysis.ModulePackages(moduleDir, modulePath)
			if err != nil {
				return nil, err
			}
			n := len(paths)
			for _, p := range mod {
				if p == a || strings.HasPrefix(p, a+"/") {
					paths = append(paths, p)
				}
			}
			if len(paths) == n {
				return nil, fmt.Errorf("no packages under %s", a)
			}
			continue
		}
		paths = append(paths, a)
	}
	return paths, nil
}
