// Package lint is the thermalvet analyzer suite: custom static checks
// that turn this repository's determinism and serialization contracts
// — enforced until now only by after-the-fact regression tests — into
// compile-time properties. Four analyzers:
//
//   - mapiter: no `for range` over a map in the deterministic core
//     unless the keys are collected and sorted, or the site carries a
//     waiver. Map iteration order is randomized per run, and float
//     accumulation in map order is last-ulp-visible (the PR-4
//     hotspot.NewModel bug class).
//   - seedzero: no `if seed == 0 { seed = ... }`-shaped rewrites.
//     Seed zero is a valid seed; treating it as "unset" silently
//     changes results for callers who asked for it (the PR-1/PR-4
//     bug class).
//   - fpfields: every field-by-field serializer registered with a
//     `//thermalvet:serializes T` comment must reference all exported
//     fields of T or name the deliberately-skipped ones in a
//     `skip(...)` list. Replaces scattered reflect.NumField pins and
//     reports *which* field drifted.
//   - walltime: no time.Now/time.Since and no global math/rand in the
//     deterministic core. Wall-clock and process-global RNG state are
//     the two ambient inputs that break cross-run byte-identity.
//
// Findings at sites that are deliberate carry an inline waiver:
//
//	//thermalvet:allow <analyzer>(<reason>)
//
// on the flagged line or the line above. The reason is mandatory —
// a waiver without one is itself a finding.
package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"

	"thermalsched/internal/lint/analysis"
)

// Analyzers returns the full thermalvet suite in a stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		MapIterAnalyzer,
		SeedZeroAnalyzer,
		FpFieldsAnalyzer,
		WallTimeAnalyzer,
	}
}

// corePackages names the deterministic core: the packages whose
// outputs are covered by the byte-identity contract (cross-surface,
// cross-parallelism, cross-restart). The jobs/service tier is exempt:
// it deals in wall-clock timestamps and client-facing rate limits by
// design.
var corePackages = map[string]bool{
	"hotspot":     true,
	"sched":       true,
	"floorplan":   true,
	"cosynth":     true,
	"runtime":     true,
	"scenario":    true,
	"taskgraph":   true,
	"experiments": true,
	"search":      true,
	"stream":      true,
	"coloop":      true,
	"dtm":         true,
}

// modulePath is the import-path prefix of this repository.
const modulePath = "thermalsched"

// isCorePackage reports whether the import path belongs to the
// deterministic core. Vet test variants ("pkg [pkg.test]") resolve
// like their base package.
func isCorePackage(importPath string) bool {
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i]
	}
	if importPath == modulePath {
		return true // root package: Engine, fingerprints, flows
	}
	rest, ok := strings.CutPrefix(importPath, modulePath+"/internal/")
	if !ok {
		return false
	}
	return corePackages[rest]
}

// isTestFile reports whether pos sits in a _test.go file. The
// determinism contracts govern production code; test files measure
// wall-clock and iterate maps for assertions freely.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// waiverRe matches one waiver directive:
//
//	//thermalvet:allow mapiter(accumulation is order-independent)
//
// The optional trailing "// want ..." clause exists so linttest
// fixtures can attach expectations to directive lines; it is inert in
// real code.
var waiverRe = regexp.MustCompile(`^//thermalvet:allow\s+([a-z]+)\(([^)]*)\)\s*(?:// want .*)?$`)

// waivers indexes one file's //thermalvet:allow directives by line.
type waivers map[int][]waiver

type waiver struct {
	analyzer string
	reason   string
	pos      token.Pos
}

// fileWaivers collects the waiver directives of one file. Malformed
// waivers (an empty reason) are reported immediately: a waiver is an
// auditable exemption, and "because" is not a justification.
func fileWaivers(pass *analysis.Pass, f *ast.File) waivers {
	w := waivers{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := waiverRe.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.HasPrefix(c.Text, "//thermalvet:allow") {
					pass.Reportf(c.Pos(), "malformed thermalvet waiver: want //thermalvet:allow <analyzer>(<reason>)")
				}
				continue
			}
			name, reason := m[1], strings.TrimSpace(m[2])
			if reason == "" {
				pass.Reportf(c.Pos(), "thermalvet waiver for %s is missing its justification", name)
				continue
			}
			line := pass.Fset.Position(c.Pos()).Line
			w[line] = append(w[line], waiver{analyzer: name, reason: reason, pos: c.Pos()})
		}
	}
	return w
}

// waivedAt reports whether a finding of the named analyzer at pos is
// waived: a directive on the same line or the line immediately above.
func (w waivers) waivedAt(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	line := fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, wv := range w[l] {
			if wv.analyzer == analyzer {
				return true
			}
		}
	}
	return false
}
