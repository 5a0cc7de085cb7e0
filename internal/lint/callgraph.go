package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Whole-program static call graph over every loaded package, the foundation
// for the interprocedural analyzers (lockorder, wiresym, leakcheck).
//
// Construction is purely syntactic plus type information — no SSA, no flow
// analysis. Each function declaration in a loaded package becomes a
// FuncInfo; every call expression inside it resolves to zero or more callee
// FuncInfos:
//
//   - Direct calls (f(), pkg.F(), recv.Method() on a concrete receiver)
//     resolve through types.Info to exactly one callee.
//   - Interface method calls are conservatively devirtualized: the callees
//     are that method on every named type in the loaded packages whose
//     method set satisfies the interface. Implementations outside the
//     loaded packages (stdlib, export-data-only deps) are invisible, so a
//     call edge is never created into code the analyzers cannot read.
//   - Calls through function values (fields, parameters, closures assigned
//     to variables) do not resolve. This is the documented precision limit:
//     an analyzer that needs those edges must over-approximate on its own.
//
// Cross-package resolution relies on Load type-checking every target
// package from source in dependency order with a source-first importer, so
// a *types.Func object is pointer-identical whether it is seen from its
// declaring package or from an importer. Packages with in-package _test.go
// files are type-checked twice (see Load); Funcs maps BOTH universes'
// objects — the test-augmented one and its test-free twin on Package.Plain
// — to the same FuncInfo, so calls from an importing package (which sees
// the twin) still resolve.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Funcs maps each declared function or method to its info.
	Funcs map[*types.Func]*FuncInfo
	// FuncList holds the same infos in deterministic (load, file, decl)
	// order, so analyzers that iterate produce stable output.
	FuncList []*FuncInfo

	named       []*types.Named
	devirtCache map[devirtKey][]*FuncInfo
}

// FuncInfo is one declared function or method with a body.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// TestFile marks functions declared in _test.go files; most analyzers
	// skip them.
	TestFile bool
	// Calls lists every call expression in the body (closures included)
	// with its resolved callees, in syntactic order.
	Calls []*CallSite
}

// CallSite is one call expression and the program functions it may reach.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*FuncInfo
}

type devirtKey struct {
	iface  *types.Interface
	method string
}

// BuildProgram assembles the call graph for a set of loaded packages. The
// packages must share one FileSet and one type-checking universe (both are
// guaranteed by Load and by the fixture harness).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:        pkgs,
		Funcs:       make(map[*types.Func]*FuncInfo),
		devirtCache: make(map[devirtKey][]*FuncInfo),
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			test := isTestFilename(pkg.Fset, f.Pos())
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg, TestFile: test}
				p.Funcs[obj] = fi
				if pkg.Plain != nil && !test {
					if twin := plainTwin(pkg.Plain, obj); twin != nil {
						p.Funcs[twin] = fi
					}
				}
				p.FuncList = append(p.FuncList, fi)
			}
		}
		scopes := []*types.Scope{pkg.Types.Scope()}
		if pkg.Plain != nil {
			scopes = append(scopes, pkg.Plain.Scope())
		}
		for _, scope := range scopes {
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					p.named = append(p.named, n)
				}
			}
		}
	}
	for _, fi := range p.FuncList {
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fi.Calls = append(fi.Calls, &CallSite{
					Call:    call,
					Callees: p.ResolveCall(fi.Pkg, call),
				})
			}
			return true
		})
	}
	return p
}

// plainTwin finds, in the package's test-free twin universe, the object
// corresponding to a function declared in the test-augmented check — the
// same top-level function or method looked up by name and receiver.
func plainTwin(plain *types.Package, f *types.Func) *types.Func {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() == nil {
		tf, _ := plain.Scope().Lookup(f.Name()).(*types.Func)
		return tf
	}
	rt := sig.Recv().Type()
	for {
		p, ok := rt.(*types.Pointer)
		if !ok {
			break
		}
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return nil
	}
	tn, ok := plain.Scope().Lookup(named.Obj().Name()).(*types.TypeName)
	if !ok {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, plain, f.Name())
	tf, _ := obj.(*types.Func)
	return tf
}

func isTestFilename(fset *token.FileSet, pos token.Pos) bool {
	name := fset.Position(pos).Filename
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}

// ResolveCall returns the program functions a call expression (appearing in
// pkg) may invoke: one for a direct call, several for a devirtualized
// interface call, none for builtins, conversions, function values, and
// callees outside the loaded packages.
func (p *Program) ResolveCall(pkg *Package, call *ast.CallExpr) []*FuncInfo {
	fun := unparen(call.Fun)
	// An explicit instantiation, F[T](...), calls the generic F.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = unparen(ix.X)
	case *ast.IndexListExpr:
		fun = unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return p.lookup(f)
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			f, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			recv := sel.Recv()
			for {
				ptr, ok := recv.(*types.Pointer)
				if !ok {
					break
				}
				recv = ptr.Elem()
			}
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				return p.devirtualize(iface, f.Name())
			}
			return p.lookup(f)
		}
		// Qualified call: pkg.F.
		if f, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return p.lookup(f)
		}
	}
	return nil
}

func (p *Program) lookup(f *types.Func) []*FuncInfo {
	if fi, ok := p.Funcs[f]; ok {
		return []*FuncInfo{fi}
	}
	return nil
}

// devirtualize returns the named method on every loaded named type whose
// method set (value or pointer) satisfies iface.
func (p *Program) devirtualize(iface *types.Interface, method string) []*FuncInfo {
	if iface.NumMethods() == 0 {
		return nil
	}
	key := devirtKey{iface, method}
	if out, ok := p.devirtCache[key]; ok {
		return out
	}
	var out []*FuncInfo
	seen := make(map[*FuncInfo]bool) // both universes of a type may match
	for _, n := range p.named {
		if types.IsInterface(n) {
			continue
		}
		if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), method)
		if f, ok := obj.(*types.Func); ok {
			for _, fi := range p.lookup(f) {
				if !seen[fi] {
					seen[fi] = true
					out = append(out, fi)
				}
			}
		}
	}
	p.devirtCache[key] = out
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}
