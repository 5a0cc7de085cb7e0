package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// WireSym pairs each encode function with its decode counterpart in the
// wire/codec packages and verifies the field sequence written matches the
// sequence read, so protocol drift is a vet failure instead of a
// crash-sweep discovery.
//
// Pairing is by name stem: encode/append/write/marshal on one side,
// decode/parse/read/unmarshal on the other, case-insensitively
// (encodeRedo <-> decodeRedo, AppendFrameHeader <-> ParseFrameHeader). A
// stem with exactly one function on each side forms a pair; unpaired or
// ambiguous stems are skipped — this analyzer checks symmetry of declared
// pairs, it does not demand that every codec have a named twin (the wal
// frame codec, for example, lives in Append/scanSegment and is covered by
// its own corruption tests).
//
// Each function's body is abstracted into a sequence of primitive wire
// operations:
//
//   - wire.Buffer / wire.Reader methods: u8 u16 u32 u64 bytes16 bytes32 fence,
//     with Reader.Count reading the u32 an encoder wrote via Buffer.U32
//   - encoding/binary: le:uN / be:uN from the endianness and width
//
// for/range loops wrap their ops in rep[...]; an if with identical ops in
// both branches collapses, a bodyless-else if wraps in opt[...], and
// diverging branches wrap in alt[...|...] — structure must match on both
// sides. Calls that resolve (via the program call graph) to exactly one
// loaded function are inlined recursively, so helpers like a shared header
// codec do not hide ops. Gob/raw-copy codecs abstract to the empty
// sequence and pass vacuously.
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc: "encode/decode pairs in the wire, wal, sinfonia, and rpcnet codecs must " +
		"write and read the same field sequence",
	Scope:      wireSymScope,
	RunProgram: runWireSym,
}

var wireSymPkgs = map[string]bool{
	"minuet/internal/wire":     true,
	"minuet/internal/wal":      true,
	"minuet/internal/sinfonia": true,
	"minuet/internal/rpcnet":   true,
}

func wireSymScope(path string) bool {
	return wireSymPkgs[path] || path == "wiresym" || strings.HasPrefix(path, "wiresym/")
}

var encPrefixes = []string{"encode", "append", "write", "marshal"}
var decPrefixes = []string{"decode", "parse", "read", "unmarshal"}

func codecStem(name string, prefixes []string) (string, bool) {
	lower := strings.ToLower(name)
	for _, p := range prefixes {
		if strings.HasPrefix(lower, p) && len(lower) > len(p) {
			return lower[len(p):], true
		}
	}
	return "", false
}

func runWireSym(pass *ProgramPass) {
	ex := &opExtractor{prog: pass.Prog, memo: make(map[*FuncInfo][]string), busy: make(map[*FuncInfo]bool)}
	for _, pkg := range pass.Prog.Pkgs {
		if !wireSymScope(pkg.Path) {
			continue
		}
		encs := make(map[string][]*FuncInfo)
		decs := make(map[string][]*FuncInfo)
		for _, fi := range pass.Prog.FuncList {
			if fi.Pkg != pkg || fi.TestFile {
				continue
			}
			name := fi.Decl.Name.Name
			if stem, ok := codecStem(name, encPrefixes); ok {
				encs[stem] = append(encs[stem], fi)
			} else if stem, ok := codecStem(name, decPrefixes); ok {
				decs[stem] = append(decs[stem], fi)
			}
		}
		var stems []string
		for s := range encs {
			stems = append(stems, s)
		}
		sort.Strings(stems)
		for _, stem := range stems {
			if len(encs[stem]) != 1 || len(decs[stem]) != 1 {
				continue
			}
			enc, dec := encs[stem][0], decs[stem][0]
			wops := ex.ops(enc)
			rops := ex.ops(dec)
			if i, ok := firstMismatch(wops, rops); !ok {
				at := func(ops []string, i int) string {
					if i < len(ops) {
						return ops[i]
					}
					return "nothing"
				}
				pass.Reportf(enc.Decl.Pos(),
					"wire codec drift between %s and %s: op %d written as %s but read as %s (encoder writes %d ops, decoder reads %d)",
					enc.Decl.Name.Name, dec.Decl.Name.Name, i+1, at(wops, i), at(rops, i), len(wops), len(rops))
			}
		}
	}
}

// firstMismatch compares two op sequences; ok=false means they differ, with
// i the first differing index.
func firstMismatch(a, b []string) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, false
		}
	}
	if len(a) != len(b) {
		return n, false
	}
	return 0, true
}

// opExtractor abstracts function bodies into wire-op sequences, memoized
// across the helper-inlining recursion.
type opExtractor struct {
	prog *Program
	memo map[*FuncInfo][]string
	busy map[*FuncInfo]bool
}

func (ex *opExtractor) ops(fi *FuncInfo) []string {
	if ops, ok := ex.memo[fi]; ok {
		return ops
	}
	if ex.busy[fi] {
		return nil // recursive codec: cut the cycle
	}
	ex.busy[fi] = true
	ops := ex.stmts(fi.Pkg, fi.Decl.Body.List)
	ex.busy[fi] = false
	ex.memo[fi] = ops
	return ops
}

func (ex *opExtractor) stmts(pkg *Package, list []ast.Stmt) []string {
	var ops []string
	for _, s := range list {
		ops = append(ops, ex.stmt(pkg, s)...)
	}
	return ops
}

func (ex *opExtractor) stmt(pkg *Package, s ast.Stmt) []string {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return ex.stmts(pkg, s.List)
	case *ast.LabeledStmt:
		return ex.stmt(pkg, s.Stmt)
	case *ast.IfStmt:
		var ops []string
		if s.Init != nil {
			ops = append(ops, ex.stmt(pkg, s.Init)...)
		}
		ops = append(ops, ex.expr(pkg, s.Cond)...)
		then := ex.stmts(pkg, s.Body.List)
		var els []string
		if s.Else != nil {
			els = ex.stmt(pkg, s.Else)
		}
		return append(ops, branchOps(then, els)...)
	case *ast.ForStmt:
		var ops []string
		if s.Init != nil {
			ops = append(ops, ex.stmt(pkg, s.Init)...)
		}
		if s.Cond != nil {
			ops = append(ops, ex.expr(pkg, s.Cond)...)
		}
		body := ex.stmts(pkg, s.Body.List)
		if s.Post != nil {
			body = append(body, ex.stmt(pkg, s.Post)...)
		}
		return append(ops, repOps(body)...)
	case *ast.RangeStmt:
		ops := ex.expr(pkg, s.X)
		return append(ops, repOps(ex.stmts(pkg, s.Body.List))...)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Branch-heavy dispatchers (replay switches, protocol sniffing) are
		// not field sequences; collect nothing rather than guess.
		return nil
	case *ast.DeferStmt, *ast.GoStmt:
		return nil
	default:
		return ex.expr(pkg, s)
	}
}

// branchOps folds an if/else: identical branches collapse, a lone branch is
// optional, diverging branches are recorded as alternatives (which only
// match a structurally identical if/else on the other side).
func branchOps(then, els []string) []string {
	if len(then) == 0 && len(els) == 0 {
		return nil
	}
	if strings.Join(then, " ") == strings.Join(els, " ") {
		return then
	}
	if len(els) == 0 {
		return append(append([]string{"opt["}, then...), "]")
	}
	if len(then) == 0 {
		return append(append([]string{"opt["}, els...), "]")
	}
	out := append([]string{"alt["}, then...)
	out = append(out, "|")
	out = append(out, els...)
	return append(out, "]")
}

func repOps(body []string) []string {
	if len(body) == 0 {
		return nil
	}
	return append(append([]string{"rep["}, body...), "]")
}

// expr collects ops from calls inside a statement or expression, in
// syntactic order. Closures are opaque to codecs; skipped.
func (ex *opExtractor) expr(pkg *Package, n ast.Node) []string {
	if n == nil {
		return nil
	}
	var ops []string
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Arguments first: their ops happen before the call consumes
			// them (make([]Addr, r.Count(8))).
			for _, a := range x.Args {
				ops = append(ops, ex.expr(pkg, a)...)
			}
			ops = append(ops, ex.call(pkg, x)...)
			return false
		}
		return true
	})
	return ops
}

func (ex *opExtractor) call(pkg *Package, call *ast.CallExpr) []string {
	if op, ok := primitiveOp(pkg, call); ok {
		if op == "" {
			return nil
		}
		return []string{op}
	}
	callees := ex.prog.ResolveCall(pkg, call)
	if len(callees) != 1 || callees[0].TestFile {
		return nil
	}
	return ex.ops(callees[0])
}

// wireBufferOps maps wire.Buffer/wire.Reader methods to ops; the two types
// mirror each other by construction. Reader.View16 reads what Buffer.Bytes16
// wrote, without copying; Reader.Count reads a Buffer.U32 element count and
// bounds it.
var wireBufferOps = map[string]string{
	"U8": "u8", "U16": "u16", "U32": "u32", "U64": "u64", "Count": "u32",
	"Bytes16": "bytes16", "View16": "bytes16", "Bytes32": "bytes32", "Fence": "fence",
}

// primitiveOp recognizes the leaf wire operations. ok=true with op=""
// means "known non-op" (nothing to record, do not inline).
func primitiveOp(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	// encoding/binary: binary.LittleEndian.PutUint32 etc.
	if inner, ok := sel.X.(*ast.SelectorExpr); ok {
		if id, ok := inner.X.(*ast.Ident); ok && id.Name == "binary" {
			var endian string
			switch inner.Sel.Name {
			case "LittleEndian":
				endian = "le:"
			case "BigEndian":
				endian = "be:"
			default:
				return "", false
			}
			m := sel.Sel.Name
			for _, prefix := range []string{"PutUint", "AppendUint", "Uint"} {
				if strings.HasPrefix(m, prefix) {
					return endian + "u" + m[len(prefix):], true
				}
			}
			return "", false
		}
	}
	tv, ok := pkg.Info.Types[sel.X]
	if !ok {
		return "", false
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	if n.Obj().Pkg().Name() == "wire" && (n.Obj().Name() == "Buffer" || n.Obj().Name() == "Reader") {
		op, ok := wireBufferOps[sel.Sel.Name]
		return op, ok
	}
	return "", false
}
