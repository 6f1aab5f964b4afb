package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"thermalsched/internal/lint/analysis"
)

// FpFieldsAnalyzer checks field-by-field serializers against the
// structs they serialize. The repository's cache keys (the Engine's
// modelKey, scenario.Spec.Fingerprint, scenario.StreamSpec.Fingerprint)
// serialize every field explicitly, which means a newly added struct
// field is silently *absent* from the key until someone remembers to
// add it, and two inputs differing only in that field wrongly share a
// cache entry. Request.Fingerprint is not a registered serializer: it
// digests the canonical request's encoding/json bytes, which cover
// every exported field the encoder sees. Until now four scattered
// reflect.NumField count pins guarded this; they fire on any count
// change without saying what drifted. fpfields replaces them: a
// serializer declares what it covers with doc-comment registrations
//
//	//thermalvet:serializes T
//	//thermalvet:serializes pkg.T skip(FieldA, FieldB)
//
// and the analyzer verifies the function body references every
// exported field of T, naming each missing field. Deliberately
// excluded fields are named in skip(...) — and a skip list drifts
// too: skipping a field that no longer exists, or one the body does
// reference, is reported.
var FpFieldsAnalyzer = &analysis.Analyzer{
	Name: "fpfields",
	Doc:  "check //thermalvet:serializes-registered serializers reference every exported field of their struct",
	Run:  runFpFields,
}

// serializesRe matches one registration:
//
//	//thermalvet:serializes Request
//	//thermalvet:serializes hotspot.Config skip(Name)
//
// The optional trailing "// want ..." clause exists so linttest
// fixtures can attach expectations to registration lines; it is inert
// in real code.
var serializesRe = regexp.MustCompile(`^//thermalvet:serializes\s+([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)?)\s*(?:skip\(([^)]*)\)\s*)?(?:// want .*)?$`)

func runFpFields(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				m := serializesRe.FindStringSubmatch(c.Text)
				if m == nil {
					if strings.HasPrefix(c.Text, "//thermalvet:serializes") {
						pass.Reportf(c.Pos(), "malformed registration: want //thermalvet:serializes T [skip(F1, F2)]")
					}
					continue
				}
				checkSerializer(pass, f, fd, c, m[1], splitSkips(m[2]))
			}
		}
	}
	return nil
}

func splitSkips(s string) []string {
	var skips []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			skips = append(skips, part)
		}
	}
	return skips
}

// checkSerializer verifies one registration on one function.
func checkSerializer(pass *analysis.Pass, f *ast.File, fd *ast.FuncDecl, c *ast.Comment, typeName string, skips []string) {
	st, label, err := resolveStruct(pass, f, typeName)
	if err != nil {
		pass.Reportf(c.Pos(), "//thermalvet:serializes %s: %v", typeName, err)
		return
	}

	fields := map[*types.Var]bool{} // exported field -> referenced in body
	byName := map[string]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		if fld := st.Field(i); fld.Exported() {
			fields[fld] = false
			byName[fld.Name()] = fld
		}
	}

	// Mark every field of T the function body selects, whether off
	// the receiver, a parameter, or a derived local (e.g. the
	// withDefaults() copy a normalizing serializer hashes).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		if fld, ok := selection.Obj().(*types.Var); ok {
			if _, tracked := fields[fld]; tracked {
				fields[fld] = true
			}
		}
		return true
	})

	skipped := map[*types.Var]bool{}
	for _, name := range skips {
		fld, ok := byName[name]
		if !ok {
			pass.Reportf(c.Pos(), "serializer %s skips %s.%s, but %s has no such exported field — the skip list drifted",
				fd.Name.Name, label, name, label)
			continue
		}
		if fields[fld] {
			pass.Reportf(c.Pos(), "serializer %s skips %s.%s but its body references it — drop the skip or the reference",
				fd.Name.Name, label, name)
		}
		skipped[fld] = true
	}

	var missing []string
	for fld, referenced := range fields {
		if !referenced && !skipped[fld] {
			missing = append(missing, fld.Name())
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		pass.Reportf(c.Pos(), "serializer %s does not reference %s.%s; serialize it or name it in skip(...)",
			fd.Name.Name, label, name)
	}
}

// resolveStruct resolves "T" in the pass's package scope, or "pkg.T"
// through the file's imports, to the underlying struct type.
func resolveStruct(pass *analysis.Pass, f *ast.File, name string) (*types.Struct, string, error) {
	scope := pass.Pkg.Scope()
	label := name
	if pkgPart, typePart, qualified := strings.Cut(name, "."); qualified {
		pkg := importedPackage(pass, f, pkgPart)
		if pkg == nil {
			return nil, "", fmt.Errorf("package %q is not imported by this file", pkgPart)
		}
		scope = pkg.Scope()
		name = typePart
	}
	obj := scope.Lookup(name)
	if obj == nil {
		return nil, "", fmt.Errorf("type not found")
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil, "", fmt.Errorf("%s is not a type", label)
	}
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		return nil, "", fmt.Errorf("%s is not a struct type", label)
	}
	return st, label, nil
}

// importedPackage resolves a local package name (alias-aware) through
// the file's import declarations.
func importedPackage(pass *analysis.Pass, f *ast.File, localName string) *types.Package {
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		var imported *types.Package
		for _, p := range pass.Pkg.Imports() {
			if p.Path() == path {
				imported = p
				break
			}
		}
		if imported == nil {
			continue
		}
		name := imported.Name()
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == localName {
			return imported
		}
	}
	return nil
}
