package cc

import (
	"fmt"
	"math"
)

func mathFloat64bits(v float64) uint64 { return math.Float64bits(v) }

// exprKind discriminates Expr.
type exprKind uint8

const (
	kConst exprKind = iota
	kConstF
	kVar
	kGlobal // address of a global (+ constant offset in val)
	kBin
	kNeg
	kLoad
	kLoadW
	kLoadB
	kLoadF
	kCall
	kCallInd
	kSyscall
	kMRS
	kCAS
	kBool // condition materialized as 0/1
	kSqrt
	kFNeg
	kFAbs
	kCvtWF // word -> f64
	kCvtFW // f64 -> word (truncate)
	kWordBytes
	kWordShift
	kTC
	kMulHi
	kClz
)

// BinOp is a binary operator.
type BinOp uint8

// Binary operators. Division and remainder come in signed and unsigned
// variants; shifts are logical unless Sar.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpUDiv
	OpSDiv
	OpURem
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
)

// Expr is an expression-tree node. Expressions are pure except kCall,
// kSyscall and kCAS.
type Expr struct {
	kind   exprKind
	typ    Type
	op     BinOp
	a, b   *Expr
	val    int64
	fval   float64
	v      *Var
	gname  string
	callee string
	args   []*Expr
	cond   *Cond
	sys    int
}

// I builds a Word constant.
func I(v int64) *Expr { return &Expr{kind: kConst, typ: Word, val: v} }

// F builds a float64 constant.
func F(v float64) *Expr { return &Expr{kind: kConstF, typ: F64, fval: v} }

// V reads a local or parameter.
func V(v *Var) *Expr { return &Expr{kind: kVar, typ: v.Typ, v: v} }

// G takes the address of a named global.
func G(name string) *Expr { return &Expr{kind: kGlobal, typ: Word, gname: name} }

// GOff takes the address of a global plus a constant byte offset.
func GOff(name string, off int64) *Expr {
	return &Expr{kind: kGlobal, typ: Word, gname: name, val: off}
}

// WordBytes is the target word size in bytes (4 or 8).
func WordBytes() *Expr { return &Expr{kind: kWordBytes, typ: Word} }

// WordShift is log2 of the target word size (2 or 3).
func WordShift() *Expr { return &Expr{kind: kWordShift, typ: Word} }

func bin(op BinOp, t Type, a, b *Expr) *Expr {
	if a.typ != t || b.typ != t {
		panic(fmt.Sprintf("cc: operator %d type mismatch (%s,%s)", op, a.typ, b.typ))
	}
	return &Expr{kind: kBin, typ: t, op: op, a: a, b: b}
}

// Add returns a+b. Constant folding keeps address arithmetic compact.
func Add(a, b *Expr) *Expr {
	if a.kind == kConst && b.kind == kConst {
		return I(a.val + b.val)
	}
	if a.kind == kGlobal && b.kind == kConst {
		return GOff(a.gname, a.val+b.val)
	}
	if b.kind == kConst && b.val == 0 {
		return a
	}
	if a.kind == kConst && a.val == 0 {
		return b
	}
	return bin(OpAdd, Word, a, b)
}

// Sub returns a-b.
func Sub(a, b *Expr) *Expr {
	if a.kind == kConst && b.kind == kConst {
		return I(a.val - b.val)
	}
	if b.kind == kConst && b.val == 0 {
		return a
	}
	return bin(OpSub, Word, a, b)
}

// Mul returns a*b.
func Mul(a, b *Expr) *Expr {
	if a.kind == kConst && b.kind == kConst {
		return I(a.val * b.val)
	}
	return bin(OpMul, Word, a, b)
}

// UDiv returns the unsigned quotient a/b (0 when b is 0, as on ARM).
func UDiv(a, b *Expr) *Expr { return bin(OpUDiv, Word, a, b) }

// SDiv returns the signed quotient.
func SDiv(a, b *Expr) *Expr { return bin(OpSDiv, Word, a, b) }

// URem returns the unsigned remainder.
func URem(a, b *Expr) *Expr { return bin(OpURem, Word, a, b) }

// SRem returns the signed remainder.
func SRem(a, b *Expr) *Expr { return bin(OpSRem, Word, a, b) }

// And returns a&b.
func And(a, b *Expr) *Expr { return bin(OpAnd, Word, a, b) }

// Or returns a|b.
func Or(a, b *Expr) *Expr { return bin(OpOr, Word, a, b) }

// Xor returns a^b.
func Xor(a, b *Expr) *Expr { return bin(OpXor, Word, a, b) }

// Shl returns a<<b (logical).
func Shl(a, b *Expr) *Expr { return bin(OpShl, Word, a, b) }

// Shr returns a>>b (logical).
func Shr(a, b *Expr) *Expr { return bin(OpShr, Word, a, b) }

// Sar returns a>>b (arithmetic).
func Sar(a, b *Expr) *Expr { return bin(OpSar, Word, a, b) }

// Neg returns -a.
func Neg(a *Expr) *Expr {
	if a.typ == F64 {
		return &Expr{kind: kFNeg, typ: F64, a: a}
	}
	return &Expr{kind: kNeg, typ: Word, a: a}
}

// MulHi returns the high 32 bits of the 64-bit product of the low 32 bits
// of a and b (the UMULL idiom of the 32-bit ISA; mul+shift on the 64-bit
// one).
func MulHi(a, b *Expr) *Expr { return bin(OpAdd, Word, a, b).retag(kMulHi) }

// Clz counts leading zeros at the native word width (32 on armv7, 64 on
// armv8).
func Clz(a *Expr) *Expr { return &Expr{kind: kClz, typ: Word, a: a} }

// retag rewrites a node's kind (internal constructor helper).
func (e *Expr) retag(k exprKind) *Expr { e.kind = k; return e }

// FAdd returns a+b for float64.
func FAdd(a, b *Expr) *Expr { return bin(OpFAdd, F64, a, b) }

// FSub returns a-b for float64.
func FSub(a, b *Expr) *Expr { return bin(OpFSub, F64, a, b) }

// FMul returns a*b for float64.
func FMul(a, b *Expr) *Expr { return bin(OpFMul, F64, a, b) }

// FDiv returns a/b for float64.
func FDiv(a, b *Expr) *Expr { return bin(OpFDiv, F64, a, b) }

// FNeg returns -a for float64.
func FNeg(a *Expr) *Expr { return &Expr{kind: kFNeg, typ: F64, a: a} }

// FAbs returns |a| for float64.
func FAbs(a *Expr) *Expr { return &Expr{kind: kFAbs, typ: F64, a: a} }

// Sqrt returns the square root of a float64.
func Sqrt(a *Expr) *Expr { return &Expr{kind: kSqrt, typ: F64, a: a} }

// CvtWF converts a signed Word to float64.
func CvtWF(a *Expr) *Expr { return &Expr{kind: kCvtWF, typ: F64, a: a} }

// CvtFW truncates a float64 toward zero into a Word.
func CvtFW(a *Expr) *Expr { return &Expr{kind: kCvtFW, typ: Word, a: a} }

// Load reads a machine word from [addr].
func Load(addr *Expr) *Expr { return &Expr{kind: kLoad, typ: Word, a: addr} }

// LoadW reads 32 bits (zero-extended) from [addr].
func LoadW(addr *Expr) *Expr { return &Expr{kind: kLoadW, typ: Word, a: addr} }

// LoadB reads one byte (zero-extended) from [addr].
func LoadB(addr *Expr) *Expr { return &Expr{kind: kLoadB, typ: Word, a: addr} }

// LoadF reads a float64 from [addr].
func LoadF(addr *Expr) *Expr { return &Expr{kind: kLoadF, typ: F64, a: addr} }

// Call invokes a function returning its Word result.
func Call(name string, args ...*Expr) *Expr {
	if len(args) > 4 {
		panic(fmt.Sprintf("cc: call %s: at most 4 arguments", name))
	}
	for i, a := range args {
		if a.typ != Word {
			panic(fmt.Sprintf("cc: call %s: argument %d is not a word", name, i))
		}
	}
	return &Expr{kind: kCall, typ: Word, callee: name, args: args}
}

// CallInd invokes the function whose address is target (runtime dispatch,
// used by the OMP/MPI runtimes for parallel-region bodies).
func CallInd(target *Expr, args ...*Expr) *Expr {
	if len(args) > 4 {
		panic("cc: indirect call: at most 4 arguments")
	}
	if target.typ != Word {
		panic("cc: indirect call target must be a word")
	}
	return &Expr{kind: kCallInd, typ: Word, a: target, args: args}
}

// Syscall traps into the kernel with up to 3 Word arguments.
func Syscall(num int64, args ...*Expr) *Expr {
	if len(args) > 3 {
		panic("cc: syscall: at most 3 arguments")
	}
	return &Expr{kind: kSyscall, typ: Word, val: num, args: args}
}

// MRS reads a system register (unprivileged reads are allowed by the
// hardware model).
func MRS(sys int) *Expr { return &Expr{kind: kMRS, typ: Word, sys: sys} }

// CASExpr performs an atomic compare-and-swap at [addr]: if the current
// value equals old it becomes new; the previous value is returned.
func CASExpr(addr, old, new *Expr) *Expr {
	return &Expr{kind: kCAS, typ: Word, a: addr, b: old, args: []*Expr{new}}
}

// Bool materializes a condition as 0 or 1.
func Bool(c *Cond) *Expr { return &Expr{kind: kBool, typ: Word, cond: c} }

// IndexW computes base + i*WordBytes (word-array indexing).
func IndexW(base, i *Expr) *Expr { return Add(base, Shl(i, WordShift())) }

// Index8 computes base + i*8 (float64-array indexing).
func Index8(base, i *Expr) *Expr { return Add(base, Shl(i, I(3))) }

// LoadWVar etc. convenience: load word element i of a word array global.
func LoadWordElem(global string, i *Expr) *Expr { return Load(IndexW(G(global), i)) }

// StoreWordElem stores word element i of a word array global.
func (f *Func) StoreWordElem(global string, i, v *Expr) { f.Store(IndexW(G(global), i), v) }

// LoadF64Elem loads float64 element i of an f64 array global.
func LoadF64Elem(global string, i *Expr) *Expr { return LoadF(Index8(G(global), i)) }

// StoreF64Elem stores float64 element i of an f64 array global.
func (f *Func) StoreF64Elem(global string, i, v *Expr) { f.StoreF(Index8(G(global), i), v) }

// CondKind discriminates conditions.
type CondKind uint8

// Condition kinds: integer signed/unsigned comparisons, float comparisons
// and the logical connectives.
const (
	CEq CondKind = iota
	CNe
	CLt
	CLe
	CGt
	CGe
	CLtU
	CLeU
	CGtU
	CGeU
	CFEq
	CFNe
	CFLt
	CFLe
	CFGt
	CFGe
	CAnd
	COr
	CNot
)

// Cond is a branch condition.
type Cond struct {
	kind CondKind
	a, b *Expr
	l, r *Cond
}

func icond(k CondKind, a, b *Expr) *Cond {
	if a.typ != Word || b.typ != Word {
		panic("cc: integer condition on non-word operands")
	}
	return &Cond{kind: k, a: a, b: b}
}

func fcond(k CondKind, a, b *Expr) *Cond {
	if a.typ != F64 || b.typ != F64 {
		panic("cc: float condition on non-f64 operands")
	}
	return &Cond{kind: k, a: a, b: b}
}

// Eq tests a == b (words).
func Eq(a, b *Expr) *Cond { return icond(CEq, a, b) }

// Ne tests a != b.
func Ne(a, b *Expr) *Cond { return icond(CNe, a, b) }

// Lt tests a < b (signed).
func Lt(a, b *Expr) *Cond { return icond(CLt, a, b) }

// Le tests a <= b (signed).
func Le(a, b *Expr) *Cond { return icond(CLe, a, b) }

// Gt tests a > b (signed).
func Gt(a, b *Expr) *Cond { return icond(CGt, a, b) }

// Ge tests a >= b (signed).
func Ge(a, b *Expr) *Cond { return icond(CGe, a, b) }

// LtU tests a < b (unsigned).
func LtU(a, b *Expr) *Cond { return icond(CLtU, a, b) }

// GtU tests a > b (unsigned).
func GtU(a, b *Expr) *Cond { return icond(CGtU, a, b) }

// GeU tests a >= b (unsigned).
func GeU(a, b *Expr) *Cond { return icond(CGeU, a, b) }

// FEq tests a == b (float64).
func FEq(a, b *Expr) *Cond { return fcond(CFEq, a, b) }

// FNe tests a != b (float64; true for unordered).
func FNe(a, b *Expr) *Cond { return fcond(CFNe, a, b) }

// FLt tests a < b (float64).
func FLt(a, b *Expr) *Cond { return fcond(CFLt, a, b) }

// FLe tests a <= b (float64).
func FLe(a, b *Expr) *Cond { return fcond(CFLe, a, b) }

// FGt tests a > b (float64).
func FGt(a, b *Expr) *Cond { return fcond(CFGt, a, b) }

// FGe tests a >= b (float64).
func FGe(a, b *Expr) *Cond { return fcond(CFGe, a, b) }

// AndC is the logical AND of two conditions (short-circuit).
func AndC(l, r *Cond) *Cond { return &Cond{kind: CAnd, l: l, r: r} }

// OrC is the logical OR of two conditions (short-circuit).
func OrC(l, r *Cond) *Cond { return &Cond{kind: COr, l: l, r: r} }

// NotC negates a condition.
func NotC(c *Cond) *Cond { return &Cond{kind: CNot, l: c} }
