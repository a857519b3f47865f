package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathMarker annotates a function as part of the per-tick hot path.
// It goes in the function's doc comment.
const hotpathMarker = "//mobicore:hotpath"

// HotAlloc enforces the allocation diet on functions annotated
// //mobicore:hotpath: no make/new, no append, no slice or map literals,
// no &T{} escapes, no closures, no fmt calls, no non-constant string
// concatenation, and no interface boxing. Branches that end by
// returning an error (or panicking) are cold — a steady-state tick
// never takes them — so allocations there are not charged.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocating constructs in //mobicore:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathMarker(fd.Doc) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

// hasHotpathMarker reports whether the doc comment carries the
// //mobicore:hotpath annotation.
func hasHotpathMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// checkHotFunc walks one annotated function's warm path and reports
// every allocating construct.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	cold := coldBlocks(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if b, ok := n.(*ast.BlockStmt); ok && cold[b] {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass.Info, x.Fun, "make"):
				pass.Reportf(x.Pos(), "make in hot path %s allocates every call", fd.Name.Name)
			case isBuiltin(pass.Info, x.Fun, "new"):
				pass.Reportf(x.Pos(), "new in hot path %s allocates every call", fd.Name.Name)
			case isBuiltin(pass.Info, x.Fun, "append"):
				pass.Reportf(x.Pos(), "append in hot path %s may grow its backing array", fd.Name.Name)
			default:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
					if pn := pkgNameOf(pass.Info, sel.X); pn != nil && pn.Imported().Path() == "fmt" {
						pass.Reportf(x.Pos(), "fmt.%s in hot path %s allocates (formatting boxes its operands)", sel.Sel.Name, fd.Name.Name)
					}
				}
				if t := conversionToInterface(pass, x); t != "" {
					pass.Reportf(x.Pos(), "conversion to interface %s in hot path %s boxes its operand", t, fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			if t := pass.Info.TypeOf(x); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(x.Pos(), "slice literal in hot path %s allocates every call", fd.Name.Name)
				case *types.Map:
					pass.Reportf(x.Pos(), "map literal in hot path %s allocates every call", fd.Name.Name)
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					pass.Reportf(x.Pos(), "&composite literal in hot path %s escapes to the heap", fd.Name.Name)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(x.Pos(), "func literal in hot path %s may allocate a closure", fd.Name.Name)
			return false // its body is charged to the closure itself
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isNonConstString(pass, x) {
				pass.Reportf(x.Pos(), "string concatenation in hot path %s allocates", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringType(pass.Info.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(), "string concatenation in hot path %s allocates", fd.Name.Name)
			}
			checkBoxingAssign(pass, fd, x)
		}
		return true
	})
}

// coldBlocks collects if/else blocks whose last statement returns an
// error or panics — abnormal exits the steady-state tick never takes.
func coldBlocks(pass *Pass, body *ast.BlockStmt) map[*ast.BlockStmt]bool {
	cold := map[*ast.BlockStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if isColdExit(pass, ifs.Body) {
			cold[ifs.Body] = true
		}
		if els, ok := ifs.Else.(*ast.BlockStmt); ok && isColdExit(pass, els) {
			cold[els] = true
		}
		return true
	})
	return cold
}

// isColdExit reports whether the block ends by returning a non-nil
// error or panicking.
func isColdExit(pass *Pass, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if id, ok := res.(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			if t := pass.Info.TypeOf(res); t != nil && isErrorType(t) {
				return true
			}
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok && isBuiltin(pass.Info, call.Fun, "panic") {
			return true
		}
	}
	return false
}

// conversionToInterface reports the interface type name when the call
// expression is a type conversion boxing a concrete value.
func conversionToInterface(pass *Pass, call *ast.CallExpr) string {
	if len(call.Args) != 1 {
		return ""
	}
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return ""
	}
	if !isInterface(tv.Type) {
		return ""
	}
	argT := pass.Info.TypeOf(call.Args[0])
	if argT == nil || isInterface(argT) || isUntypedNil(argT) {
		return ""
	}
	return tv.Type.String()
}

// checkBoxingAssign flags assignments that store a concrete value into
// an interface-typed location.
func checkBoxingAssign(pass *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := pass.Info.TypeOf(lhs)
		rt := pass.Info.TypeOf(as.Rhs[i])
		if lt == nil || rt == nil {
			continue
		}
		if !isInterface(lt) || isInterface(rt) || isUntypedNil(rt) {
			continue
		}
		pass.Reportf(as.Pos(), "assignment boxes %s into interface %s in hot path %s", rt, lt, fd.Name.Name)
	}
}

// isInterface reports whether values of t are interface values. A type
// parameter is not one even though types.IsInterface says so (its
// underlying type is its constraint): every instantiation holds a concrete
// value, which boxes when stored in an interface.
func isInterface(t types.Type) bool {
	_, param := types.Unalias(t).(*types.TypeParam)
	return !param && types.IsInterface(t)
}

func isErrorType(t types.Type) bool {
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// isNonConstString reports whether the expression is a string-typed
// binary op that is not constant-folded at compile time.
func isNonConstString(pass *Pass, x *ast.BinaryExpr) bool {
	tv, ok := pass.Info.Types[x]
	if !ok || tv.Value != nil {
		return false
	}
	return isStringType(tv.Type)
}
