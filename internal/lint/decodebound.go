package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DecodeBound flags allocations and loops sized by a wire- or WAL-decoded
// integer that was never bounded against the remaining input. PR 4's review
// fixed exactly this: recStage decoding did make([]Addr, n) with n read
// straight off a u32, so eight corrupt bytes could demand a 16 GiB
// allocation. The fix — a count reader that rejects any count larger than
// the bytes that could possibly back it, today wire.Reader.Count — is the
// pattern this analyzer makes mandatory.
//
// Mechanically it is an intraprocedural taint check, tuned to this
// codebase's decoders:
//
//   - Sources: calls to integer-decode methods named u8/u16/u32/u64 (any
//     case) on module types, and encoding/binary's Uint16/Uint32/Uint64/
//     Uvarint/Varint. Taint propagates through conversions, arithmetic,
//     and local assignment.
//   - Sanitizers: a relational comparison (<, <=, >, >=) mentioning the
//     tainted variable — the `if n > len(rest)/elem` guard — clears it, as
//     does deriving the value from a bounding helper like Reader.Count
//     (whose name is simply not a source).
//   - Sinks: make() size/capacity arguments, for-loop conditions, and
//     range-over-int statements. A tainted sink is reported.
//
// The check is heuristic: any comparison sanitizes, so a sloppy `if n > 0`
// silences it. That is acceptable — the analyzer exists to make "allocate
// from raw wire bytes with no check at all" impossible to merge, not to
// verify the arithmetic of every bound.
var DecodeBound = &Analyzer{
	Name: "decodebound",
	Doc:  "make() sizes and loop bounds from decoded integers must be bounded against remaining input",
	Run:  runDecodeBound,
}

var decodeSourceMethods = map[string]bool{
	"u8": true, "u16": true, "u32": true, "u64": true,
	"U8": true, "U16": true, "U32": true, "U64": true,
}

var decodeSourceBinary = map[string]bool{
	"Uint16": true, "Uint32": true, "Uint64": true,
	"Uvarint": true, "Varint": true, "ReadUvarint": true, "ReadVarint": true,
}

func runDecodeBound(pass *Pass) {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkDecodeBounds(pass, fn.Body)
			}
		}
	}
}

func checkDecodeBounds(pass *Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	// isSource reports whether call directly produces an unbounded decoded
	// integer.
	isSource := func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj, ok := pass.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return false
		}
		sig, ok := obj.Type().(*types.Signature)
		if !ok {
			return false
		}
		if sig.Recv() != nil {
			if obj.Pkg() != nil && obj.Pkg().Path() == "encoding/binary" {
				return decodeSourceBinary[obj.Name()]
			}
			return decodeSourceMethods[obj.Name()]
		}
		return obj.Pkg() != nil && obj.Pkg().Path() == "encoding/binary" && decodeSourceBinary[obj.Name()]
	}

	var exprTainted func(e ast.Expr) bool
	exprTainted = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return tainted[pass.Info.Uses[x]]
		case *ast.ParenExpr:
			return exprTainted(x.X)
		case *ast.UnaryExpr:
			return exprTainted(x.X)
		case *ast.BinaryExpr:
			return exprTainted(x.X) || exprTainted(x.Y)
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() {
				// Conversion: int(r.U32()) carries the taint through.
				if len(x.Args) == 1 {
					return exprTainted(x.Args[0])
				}
				return false
			}
			return isSource(x)
		}
		return false
	}

	sanitize := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && tainted[obj] {
					delete(tainted, obj)
				}
			}
			return true
		})
	}

	isComparison := func(e ast.Expr) bool {
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			return true
		}
		return false
	}

	reportIfTainted := func(e ast.Expr, what string) {
		if exprTainted(e) {
			pass.Reportf(e.Pos(), "%s comes from a decoded integer that was never bounded against remaining input (read it with wire.Reader.Count or guard it first)", what)
		}
	}

	// Pre-order traversal approximates source order closely enough: an if
	// condition is visited before its body, and statements in a block are
	// visited in sequence.
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Rhs) == 1 && len(node.Lhs) >= 1 {
				t := exprTainted(node.Rhs[0])
				for _, lhs := range node.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							tainted[obj] = t
						} else if obj := pass.Info.Uses[id]; obj != nil {
							tainted[obj] = t
						}
					}
				}
			} else if len(node.Rhs) == len(node.Lhs) {
				for i, lhs := range node.Lhs {
					t := exprTainted(node.Rhs[i])
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							tainted[obj] = t
						} else if obj := pass.Info.Uses[id]; obj != nil {
							tainted[obj] = t
						}
					}
				}
			}
		case *ast.ForStmt:
			// A loop whose bound is a raw decoded count spins (and usually
			// appends) for up to 2^32 iterations on corrupt input; check
			// before the comparison below sanitizes the variable.
			if node.Cond != nil && isComparison(node.Cond) {
				reportIfTainted(node.Cond, "loop bound")
			}
		case *ast.RangeStmt:
			if tv, ok := pass.Info.Types[node.X]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					reportIfTainted(node.X, "range-over-int bound")
				}
			}
		case *ast.BinaryExpr:
			if isComparison(node) {
				sanitize(node)
			}
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "make" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range node.Args[1:] {
						reportIfTainted(arg, "make size")
					}
				}
			}
		}
		return true
	})
}
