package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"thermalsched/internal/lint/analysis"
)

// SeedZeroAnalyzer flags the `if seed == 0 { seed = ... }` rewrite
// shape on any identifier matching (?i)seed, in every package. Seed
// zero is a valid seed under this repository's contract ("seeds are
// used verbatim; zero honored" — PR 4); code that treats zero as
// "unset" silently reroutes callers who explicitly asked for seed 0
// onto a different RNG stream. That bug shipped twice (PR-1
// CoSynthConfig, PR-4 taskgen audit) before the contract was written
// down. Only the rewrite shape is flagged: validating a seed
// (returning an error, selecting a documented default through a
// presence flag or a nil pointer) has no assignment in the guarded body
// and passes. Deliberate rewrites carry
// //thermalvet:allow seedzero(reason).
var SeedZeroAnalyzer = &analysis.Analyzer{
	Name: "seedzero",
	Doc:  "flag `if seed == 0 { seed = ... }`-shaped rewrites that treat seed zero as unset",
	Run:  runSeedZero,
}

func runSeedZero(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		w := fileWaivers(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			seedExpr := seedZeroComparison(ifs.Cond)
			if seedExpr == nil {
				return true
			}
			if !bodyRewrites(ifs.Body, seedExpr) {
				return true
			}
			if w.waivedAt(pass.Fset, ifs.Pos(), pass.Analyzer.Name) {
				return true
			}
			pass.Reportf(ifs.Pos(),
				"seed-zero rewrite: %s == 0 is treated as unset and reassigned; seed zero is a valid seed (use a presence flag, or waive with //thermalvet:allow seedzero(reason))",
				types.ExprString(seedExpr))
			return true
		})
	}
	return nil
}

// seedZeroComparison returns the seed-ish operand of an `x == 0`
// (or `0 == x`) comparison anywhere inside cond, or nil.
func seedZeroComparison(cond ast.Expr) ast.Expr {
	var found ast.Expr
	ast.Inspect(cond, func(n ast.Node) bool {
		bin, ok := n.(*ast.BinaryExpr)
		if !ok || bin.Op.String() != "==" {
			return true
		}
		for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
			if isZeroLit(pair[1]) && isSeedName(pair[0]) {
				found = pair[0]
				return false
			}
		}
		return true
	})
	return found
}

func isZeroLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// isSeedName reports whether the expression names a seed: a plain
// identifier or a field selection whose final name contains "seed"
// case-insensitively.
func isSeedName(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(x.Name), "seed")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(x.Sel.Name), "seed")
	case *ast.StarExpr:
		return isSeedName(x.X)
	}
	return false
}

// bodyRewrites reports whether the guarded body assigns to the
// compared seed expression (by syntactic identity) — the shape that
// turns "seed is zero" into "pretend a different seed was given".
func bodyRewrites(body *ast.BlockStmt, seed ast.Expr) bool {
	want := types.ExprString(ast.Unparen(seed))
	rewrites := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if types.ExprString(ast.Unparen(lhs)) == want {
					rewrites = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if types.ExprString(ast.Unparen(s.X)) == want {
				rewrites = true
				return false
			}
		}
		return true
	})
	return rewrites
}
