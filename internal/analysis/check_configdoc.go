package analysis

import (
	"go/ast"
	"strings"
)

// checkConfigDoc requires a doc comment on every exported field of a
// configuration struct. Config structs are the user-facing surface of
// the engine — edgeswitch.Options, core.Config, the mpi dial options —
// and an undocumented knob is a knob nobody can safely turn: the zero
// value's meaning, the valid range, and the perf consequences all live
// in the field comment. The rule is name-based: a struct type named
// Config or Options, or ending in Config, Options, or Option, is a
// configuration struct. Prose quality is for review; the check only
// catches absence.
var checkConfigDoc = &Check{
	Name: "configdoc",
	Doc: "exported fields of configuration structs (Config, Options, " +
		"*Config, *Options, *Option) must carry a doc comment",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			if f.Test {
				continue
			}
			ast.Inspect(f.Ast, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !isConfigTypeName(ts.Name.Name) {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					// Either a doc comment above or a trailing line
					// comment counts; embedded fields document at their
					// own declaration.
					if fld.Doc != nil || fld.Comment != nil || len(fld.Names) == 0 {
						continue
					}
					for _, name := range fld.Names {
						if !ast.IsExported(name.Name) {
							continue
						}
						p.Reportf(name.Pos(), "exported field %s.%s has no doc comment", ts.Name.Name, name.Name)
					}
				}
				return true
			})
		}
	},
}

// isConfigTypeName reports whether an exported type name marks a
// configuration struct by convention.
func isConfigTypeName(name string) bool {
	if !ast.IsExported(name) {
		return false
	}
	return name == "Config" || name == "Options" ||
		strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Option")
}
