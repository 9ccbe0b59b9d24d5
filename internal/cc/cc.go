// Package cc is the small compiler that produces guest code for both
// simulated ISAs from a single typed AST. It plays the role GCC plays in the
// paper: the same benchmark source is compiled once per target, and the two
// backends intentionally reproduce the code-generation properties the paper
// attributes to the compiler --
//
//   - integer/pointer Word values are 32-bit on armv7 and 64-bit on armv8;
//   - armv7 has only 3 register-resident locals and 5 expression temporaries
//     (16 architectural registers), so locals spill to the stack early and
//     memory is touched through the same few registers (the paper's
//     "load/store template" behaviour, §4.1.4);
//   - armv8 keeps up to 10 locals and 7 temporaries in registers;
//   - float64 arithmetic lowers to hardware FP instructions on armv8 and to
//     calls into the soft-float library (__f64_add etc.) on armv7, exactly
//     as the paper observed GCC doing for the Cortex-A9 (§4.1.1).
//
// Functions take up to four Word parameters and return one Word. float64
// values cross function boundaries through memory (pointers or globals).
package cc

import "fmt"

// Type is a DSL value type.
type Type uint8

// Value types. Word is the native integer/pointer type (32- or 64-bit by
// target); F64 is IEEE-754 binary64.
const (
	Word Type = iota
	F64
)

func (t Type) String() string {
	if t == F64 {
		return "f64"
	}
	return "word"
}

// Seg says which image segment a function or global belongs to.
type Seg uint8

// Segments. Kernel code/data is privileged; user code/data is where the
// application and its runtime libraries live.
const (
	SegUser Seg = iota
	SegKernel
)

// Program is a compilation unit: functions plus globals.
type Program struct {
	Name    string
	Funcs   []*Func
	Globals []*Global
	byName  map[string]*Func
	gByName map[string]*Global
	fconsts map[uint64]string
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:    name,
		byName:  make(map[string]*Func),
		gByName: make(map[string]*Global),
	}
}

// Global is a static data object. Its size is Words machine words plus
// Bytes raw bytes (word count resolves per target, so a single declaration
// works for both ISAs). InitWords/InitBytes optionally initialize it.
type Global struct {
	Name      string
	Words     uint32
	Bytes     uint32
	InitWords []uint64
	InitBytes []byte
	Align     uint32
	// Addr is assigned by the linker.
	Addr uint32
}

// Global declares (or returns the existing) global with Words machine words
// and Bytes extra raw bytes.
func (p *Program) Global(name string, words, bytes uint32) *Global {
	if g, ok := p.gByName[name]; ok {
		return g
	}
	g := &Global{Name: name, Words: words, Bytes: bytes, Align: 8}
	p.Globals = append(p.Globals, g)
	p.gByName[name] = g
	return g
}

// GlobalWords declares a global array of n machine words.
func (p *Program) GlobalWords(name string, n uint32) *Global { return p.Global(name, n, 0) }

// GlobalF64 declares a global array of n float64 values.
func (p *Program) GlobalF64(name string, n uint32) *Global { return p.Global(name, 0, n*8) }

// GlobalBytes declares a global byte array.
func (p *Program) GlobalBytes(name string, n uint32) *Global { return p.Global(name, 0, n) }

// f64Const interns a float64 constant into the read-only pool and returns
// the backing global's name (used by the soft-float backend).
func (p *Program) f64Const(v float64) string {
	bits := f64bits(v)
	if p.fconsts == nil {
		p.fconsts = make(map[uint64]string)
	}
	if n, ok := p.fconsts[bits]; ok {
		return n
	}
	n := fmt.Sprintf(".fc%d.%s", len(p.fconsts), p.Name)
	p.GlobalInitF64(n, v)
	p.fconsts[bits] = n
	return n
}

// GlobalString declares an initialized byte-array global.
func (p *Program) GlobalString(name, s string) *Global {
	g := p.Global(name, 0, uint32(len(s)))
	g.InitBytes = []byte(s)
	return g
}

// GlobalInitWords declares a word array initialized with vals.
func (p *Program) GlobalInitWords(name string, vals ...uint64) *Global {
	g := p.Global(name, uint32(len(vals)), 0)
	g.InitWords = vals
	return g
}

// GlobalInitF64 declares a float64 array initialized with vals.
func (p *Program) GlobalInitF64(name string, vals ...float64) *Global {
	g := p.Global(name, 0, uint32(len(vals))*8)
	for _, v := range vals {
		bits := f64bits(v)
		for i := 0; i < 8; i++ {
			g.InitBytes = append(g.InitBytes, byte(bits>>uint(8*i)))
		}
	}
	return g
}

// Var is a local variable or parameter of a function.
type Var struct {
	Name    string
	Typ     Type
	IsParam bool
	Index   int
	fn      *Func
}

// Func is a function under construction.
type Func struct {
	Name   string
	Params []*Var
	Locals []*Var
	Body   []*Stmt
	// Naked suppresses the prologue/epilogue. Naked functions take no
	// parameters, must not return and must not spill to the stack; they
	// exist for boot and exception-vector code that runs before a stack
	// exists. A trapping guard instruction is appended in case control
	// falls off the end.
	Naked  bool
	prog   *Program
	blocks []*[]*Stmt // open block stack during building
	nanon  int
}

// NakedFunc starts a parameterless function compiled without prologue or
// epilogue (boot and vector code).
func (p *Program) NakedFunc(name string) *Func {
	f := p.Func(name)
	f.Naked = true
	return f
}

// Func starts building a function with the given Word parameters.
func (p *Program) Func(name string, params ...string) *Func {
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("cc: duplicate function %q in %q", name, p.Name))
	}
	f := &Func{Name: name, prog: p}
	for i, pn := range params {
		v := &Var{Name: pn, Typ: Word, IsParam: true, Index: i, fn: f}
		f.Params = append(f.Params, v)
	}
	if len(params) > 4 {
		panic(fmt.Sprintf("cc: %s: at most 4 parameters supported", name))
	}
	f.blocks = append(f.blocks, &f.Body)
	p.Funcs = append(p.Funcs, f)
	p.byName[name] = f
	return f
}

// Local declares a Word local.
func (f *Func) Local(name string) *Var {
	v := &Var{Name: name, Typ: Word, Index: len(f.Locals), fn: f}
	f.Locals = append(f.Locals, v)
	return v
}

// LocalF declares a float64 local.
func (f *Func) LocalF(name string) *Var {
	v := &Var{Name: name, Typ: F64, Index: len(f.Locals), fn: f}
	f.Locals = append(f.Locals, v)
	return v
}

// cur returns the open statement block.
func (f *Func) cur() *[]*Stmt { return f.blocks[len(f.blocks)-1] }

func (f *Func) push(s *Stmt) { *f.cur() = append(*f.cur(), s) }

// stmtKind discriminates Stmt.
type stmtKind uint8

const (
	sAssign stmtKind = iota
	sStore           // word store
	sStoreW          // 32-bit store
	sStoreB          // byte store
	sStoreF          // float64 store
	sIf
	sWhile
	sRet
	sExpr
	sBreak
	sContinue
	sMSR
	sEret
	sSaveCtx
	sRestCtx
	sWfi
	sHalt
	sSetSP
)

// Stmt is one statement.
type Stmt struct {
	kind stmtKind
	v    *Var
	e    *Expr
	addr *Expr
	cond *Cond
	body []*Stmt
	els  []*Stmt
	sys  int
}

// Assign sets a local or parameter.
func (f *Func) Assign(v *Var, e *Expr) {
	if v.Typ != e.typ {
		panic(fmt.Sprintf("cc: %s: assign %s := %s type mismatch", f.Name, v.Name, e.typ))
	}
	f.push(&Stmt{kind: sAssign, v: v, e: e})
}

// Store writes a machine word to [addr].
func (f *Func) Store(addr, val *Expr) {
	mustWord(f, addr, "store address")
	mustWord(f, val, "store value")
	f.push(&Stmt{kind: sStore, addr: addr, e: val})
}

// StoreW writes the low 32 bits of val to [addr].
func (f *Func) StoreW(addr, val *Expr) {
	mustWord(f, addr, "storew address")
	mustWord(f, val, "storew value")
	f.push(&Stmt{kind: sStoreW, addr: addr, e: val})
}

// StoreB writes the low byte of val to [addr].
func (f *Func) StoreB(addr, val *Expr) {
	mustWord(f, addr, "storeb address")
	mustWord(f, val, "storeb value")
	f.push(&Stmt{kind: sStoreB, addr: addr, e: val})
}

// StoreF writes a float64 to [addr].
func (f *Func) StoreF(addr, val *Expr) {
	mustWord(f, addr, "storef address")
	if val.typ != F64 {
		panic("cc: storef needs f64 value")
	}
	f.push(&Stmt{kind: sStoreF, addr: addr, e: val})
}

// If emits a conditional; els may be nil.
func (f *Func) If(c *Cond, then func(), els func()) {
	s := &Stmt{kind: sIf, cond: c}
	f.blocks = append(f.blocks, &s.body)
	then()
	f.blocks = f.blocks[:len(f.blocks)-1]
	if els != nil {
		f.blocks = append(f.blocks, &s.els)
		els()
		f.blocks = f.blocks[:len(f.blocks)-1]
	}
	f.push(s)
}

// While emits a loop running while c holds.
func (f *Func) While(c *Cond, body func()) {
	s := &Stmt{kind: sWhile, cond: c}
	f.blocks = append(f.blocks, &s.body)
	body()
	f.blocks = f.blocks[:len(f.blocks)-1]
	f.push(s)
}

// ForRange emits for v = from; v < to; v++ { body }.
func (f *Func) ForRange(v *Var, from, to *Expr, body func()) {
	f.Assign(v, from)
	// Evaluate the bound once into a hidden local when it is not trivial.
	bound := to
	if to.kind != kConst && to.kind != kVar {
		f.nanon++
		bv := f.Local(fmt.Sprintf(".bound%d", f.nanon))
		f.Assign(bv, to)
		bound = V(bv)
	}
	f.While(Lt(V(v), bound), func() {
		body()
		f.Assign(v, Add(V(v), I(1)))
	})
}

// Ret returns a Word value (nil for void).
func (f *Func) Ret(e *Expr) {
	if e != nil {
		mustWord(f, e, "return value")
	}
	f.push(&Stmt{kind: sRet, e: e})
}

// Do evaluates an expression for its side effects (calls, syscalls).
func (f *Func) Do(e *Expr) { f.push(&Stmt{kind: sExpr, e: e}) }

// Break exits the innermost loop.
func (f *Func) Break() { f.push(&Stmt{kind: sBreak}) }

// Continue restarts the innermost loop.
func (f *Func) Continue() { f.push(&Stmt{kind: sContinue}) }

// MSR writes a system register (privileged; kernel code only).
func (f *Func) MSR(sys int, e *Expr) {
	mustWord(f, e, "msr value")
	f.push(&Stmt{kind: sMSR, sys: sys, e: e})
}

// Eret returns from an exception.
func (f *Func) Eret() { f.push(&Stmt{kind: sEret}) }

// SaveCtx stores the interrupted context through CTXPTR.
func (f *Func) SaveCtx() { f.push(&Stmt{kind: sSaveCtx}) }

// RestCtx reloads the context addressed by CTXPTR.
func (f *Func) RestCtx() { f.push(&Stmt{kind: sRestCtx}) }

// WFI sleeps until an interrupt is pending.
func (f *Func) WFI() { f.push(&Stmt{kind: sWfi}) }

// Halt stops the whole machine.
func (f *Func) Halt() { f.push(&Stmt{kind: sHalt}) }

// SetSP points the stack pointer at e (boot/kernel code only; ordinary code
// must never move SP).
func (f *Func) SetSP(e *Expr) {
	mustWord(f, e, "stack pointer")
	f.push(&Stmt{kind: sSetSP, e: e})
}

func mustWord(f *Func, e *Expr, what string) {
	if e.typ != Word {
		panic(fmt.Sprintf("cc: %s: %s must be a word", f.Name, what))
	}
}

func f64bits(v float64) uint64 {
	return mathFloat64bits(v)
}
