package cc

import (
	"fmt"
	"math"
	"sort"

	"serfi/internal/isa"
)

// RelKind is a symbolic relocation type.
type RelKind uint8

// Relocation kinds. RelCall patches a BL word offset; RelAddr patches a
// MOVZ (at Idx) / MOVK (at Idx+1) pair with a 32-bit absolute address.
const (
	RelCall RelKind = iota
	RelAddr
)

// SymReloc is a relocation left for the linker.
type SymReloc struct {
	Idx  int
	Kind RelKind
	Sym  string
	Off  int64
}

// CompiledFunc is the output of compiling one function for one ISA.
type CompiledFunc struct {
	Name   string
	Code   []isa.Instr
	Relocs []SymReloc
}

// Compile lowers every function of p for the given ISA.
func Compile(p *Program, codec isa.ISA) (fns []*CompiledFunc, err error) {
	t := newTarget(codec)
	for _, f := range p.Funcs {
		cf, cerr := compileFunc(t, p, f)
		if cerr != nil {
			return nil, fmt.Errorf("cc: %s.%s: %w", p.Name, f.Name, cerr)
		}
		fns = append(fns, cf)
	}
	return fns, nil
}

type ccError struct{ msg string }

func (e ccError) Error() string { return e.msg }

func fail(format string, args ...interface{}) {
	panic(ccError{fmt.Sprintf(format, args...)})
}

func compileFunc(t *target, p *Program, f *Func) (cf *CompiledFunc, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(ccError); ok {
				err = ce
				return
			}
			panic(r)
		}
	}()
	g := newGen(t, p, f)
	g.homeParams()
	g.stmts(f.Body)
	return g.assemble(), nil
}

// val is a Word expression result: a register and whether we own (and must
// free) it.
type val struct {
	reg   uint8
	owned bool
}

// fv8 is a float64 value on the hardware-FP target: an FP register.
type fv8 struct {
	reg   uint8
	owned bool
}

// fv7 is a float64 value on the soft-float target: an integer register
// holding the value's address, plus an optional owned stack slot.
type fv7 struct {
	addr val
	slot int32 // frame byte offset of an owned temp slot, or -1
}

// home is a variable's storage location.
type home struct {
	inReg bool
	reg   uint8
	off   uint32 // frame offset when !inReg
}

type branchRef struct {
	idx   int
	label int
}

type loopLabels struct{ cont, brk int }

type gen struct {
	t *target
	p *Program
	f *Func

	body    []isa.Instr
	labels  map[int]int
	nlabels int
	brefs   []branchRef
	srel    []SymReloc

	homes     map[*Var]home
	tempFree  []uint8
	ftempFree []uint8
	slotFree  []int32 // free 8-byte slots
	frameOff  uint32
	usedReg   [32]bool
	usedFReg  [32]bool

	retLabel int
	loops    []loopLabels
}

func newGen(t *target, p *Program, f *Func) *gen {
	g := &gen{
		t: t, p: p, f: f,
		labels: make(map[int]int),
		homes:  make(map[*Var]home),
	}
	for i := len(t.tempRegs) - 1; i >= 0; i-- {
		g.tempFree = append(g.tempFree, t.tempRegs[i])
	}
	for i := len(t.ftempRegs) - 1; i >= 0; i-- {
		g.ftempFree = append(g.ftempFree, t.ftempRegs[i])
	}
	g.retLabel = g.label()
	// Assign homes: params first, then locals, registers while they last.
	iregs := append([]uint8(nil), t.localRegs...)
	fregs := append([]uint8(nil), t.flocalRegs...)
	assign := func(v *Var) {
		if v.Typ == F64 {
			if !t.softFloat && len(fregs) > 0 {
				g.homes[v] = home{inReg: true, reg: fregs[0]}
				g.usedFReg[fregs[0]] = true
				fregs = fregs[1:]
				return
			}
			g.homes[v] = home{off: g.slotRaw()}
			return
		}
		if len(iregs) > 0 {
			g.homes[v] = home{inReg: true, reg: iregs[0]}
			g.usedReg[iregs[0]] = true
			iregs = iregs[1:]
			return
		}
		g.homes[v] = home{off: g.wordSlot()}
	}
	for _, v := range f.Params {
		assign(v)
	}
	for _, v := range f.Locals {
		assign(v)
	}
	return g
}

// emit appends an unconditional instruction (Cond is forced to AL so call
// sites may omit it). Condition-carrying instructions go through emitCond.
func (g *gen) emit(ins isa.Instr) int {
	if ins.Cond == 0 {
		ins.Cond = isa.CondAL
	}
	g.body = append(g.body, ins)
	return len(g.body) - 1
}

// emitCond appends an instruction whose Cond field is meaningful (branches,
// cset, predicated moves). CondEQ is value 0, so no fixup happens here.
func (g *gen) emitCond(ins isa.Instr) int {
	g.body = append(g.body, ins)
	return len(g.body) - 1
}

// i2 builds an always-executed instruction.
func al(op isa.Op) isa.Instr { return isa.Instr{Op: op, Cond: isa.CondAL} }

func (g *gen) label() int { g.nlabels++; return g.nlabels - 1 }

func (g *gen) place(l int) { g.labels[l] = len(g.body) }

func (g *gen) branch(cc isa.Cond, l int) {
	idx := g.emitCond(isa.Instr{Op: isa.OpB, Cond: cc})
	g.brefs = append(g.brefs, branchRef{idx, l})
}

// alloc takes a temp register.
func (g *gen) alloc() uint8 {
	if len(g.tempFree) == 0 {
		fail("expression too deep (out of temporaries)")
	}
	r := g.tempFree[len(g.tempFree)-1]
	g.tempFree = g.tempFree[:len(g.tempFree)-1]
	g.usedReg[r] = true
	return r
}

func (g *gen) freeReg(r uint8) { g.tempFree = append(g.tempFree, r) }

func (g *gen) free(v val) {
	if v.owned {
		g.freeReg(v.reg)
	}
}

func (g *gen) allocF() uint8 {
	if len(g.ftempFree) == 0 {
		fail("float expression too deep (out of FP temporaries)")
	}
	r := g.ftempFree[len(g.ftempFree)-1]
	g.ftempFree = g.ftempFree[:len(g.ftempFree)-1]
	g.usedFReg[r] = true
	return r
}

func (g *gen) freeFv(v fv8) {
	if v.owned {
		g.ftempFree = append(g.ftempFree, v.reg)
	}
}

// wordSlot reserves a word-sized frame slot.
func (g *gen) wordSlot() uint32 {
	off := g.frameOff
	g.frameOff += g.t.wordBytes
	return off
}

// slotRaw reserves a permanent 8-byte frame slot (F64 locals).
func (g *gen) slotRaw() uint32 {
	g.frameOff = (g.frameOff + 7) &^ 7
	off := g.frameOff
	g.frameOff += 8
	return off
}

// f64slot takes a reusable 8-byte temp slot.
func (g *gen) f64slot() int32 {
	if n := len(g.slotFree); n > 0 {
		s := g.slotFree[n-1]
		g.slotFree = g.slotFree[:n-1]
		return s
	}
	return int32(g.slotRaw())
}

func (g *gen) freeSlot(s int32) {
	if s >= 0 {
		g.slotFree = append(g.slotFree, s)
	}
}

func (g *gen) freeF7(v fv7) {
	g.free(v.addr)
	g.freeSlot(v.slot)
}

// reuse returns a's register when owned, else a fresh temp.
func (g *gen) reuse(a val) uint8 {
	if a.owned {
		return a.reg
	}
	return g.alloc()
}

// movConst materializes a constant into reg.
func (g *gen) movConst(reg uint8, v int64) {
	if g.t.wordBytes == 4 {
		u := uint32(v)
		g.emit(isa.Instr{Op: isa.OpMOVZ, Cond: isa.CondAL, Rd: reg, Imm: int64(u & 0xffff)})
		if u>>16 != 0 {
			g.emit(isa.Instr{Op: isa.OpMOVK, Cond: isa.CondAL, Rd: reg, Ra: 1, Imm: int64(u >> 16)})
		}
		return
	}
	u := uint64(v)
	g.emit(isa.Instr{Op: isa.OpMOVZ, Cond: isa.CondAL, Rd: reg, Imm: int64(u & 0xffff)})
	for hw := uint8(1); hw < 4; hw++ {
		chunk := u >> (16 * uint(hw)) & 0xffff
		if chunk != 0 {
			g.emit(isa.Instr{Op: isa.OpMOVK, Cond: isa.CondAL, Rd: reg, Ra: hw, Imm: int64(chunk)})
		}
	}
}

// addrPair emits the MOVZ/MOVK pair for a global's address, leaving a
// RelAddr relocation.
func (g *gen) addrPair(reg uint8, sym string, off int64) {
	idx := g.emit(isa.Instr{Op: isa.OpMOVZ, Cond: isa.CondAL, Rd: reg})
	g.emit(isa.Instr{Op: isa.OpMOVK, Cond: isa.CondAL, Rd: reg, Ra: 1})
	g.srel = append(g.srel, SymReloc{Idx: idx, Kind: RelAddr, Sym: sym, Off: off})
}

// mov emits a register move (ADDI rd, rn, #0) unless rd == rn.
func (g *gen) mov(rd, rn uint8) {
	if rd != rn {
		g.emit(isa.Instr{Op: isa.OpADDI, Cond: isa.CondAL, Rd: rd, Rn: rn})
	}
}

// spAdd emits rd = sp + off.
func (g *gen) spAdd(rd uint8, off uint32) {
	if !g.t.fitsImm(int64(off)) {
		fail("frame offset %d exceeds immediate range", off)
	}
	g.emit(isa.Instr{Op: isa.OpADDI, Cond: isa.CondAL, Rd: rd, Rn: g.t.sp, Imm: int64(off)})
}

// ldrSlot/strSlot access a word-sized frame slot.
func (g *gen) ldrSlot(rd uint8, off uint32) {
	g.emit(isa.Instr{Op: isa.OpLDR, Cond: isa.CondAL, Rd: rd, Rn: g.t.sp, Imm: int64(off)})
}

func (g *gen) strSlot(rd uint8, off uint32) {
	g.emit(isa.Instr{Op: isa.OpSTR, Cond: isa.CondAL, Rd: rd, Rn: g.t.sp, Imm: int64(off)})
}

// homeParams moves incoming arguments into their homes.
func (g *gen) homeParams() {
	for i, pv := range g.f.Params {
		h := g.homes[pv]
		if h.inReg {
			g.mov(h.reg, g.t.argRegs[i])
		} else {
			g.strSlot(g.t.argRegs[i], h.off)
		}
	}
}

var binOpTable = map[BinOp]isa.Op{
	OpAdd: isa.OpADD, OpSub: isa.OpSUB, OpMul: isa.OpMUL,
	OpUDiv: isa.OpUDIV, OpSDiv: isa.OpSDIV,
	OpAnd: isa.OpAND, OpOr: isa.OpORR, OpXor: isa.OpEOR,
	OpShl: isa.OpLSL, OpShr: isa.OpLSR, OpSar: isa.OpASR,
}

var binImmTable = map[BinOp]isa.Op{
	OpAdd: isa.OpADDI, OpSub: isa.OpSUBI,
	OpAnd: isa.OpANDI, OpOr: isa.OpORRI, OpXor: isa.OpEORI,
	OpShl: isa.OpLSLI, OpShr: isa.OpLSRI, OpSar: isa.OpASRI,
}

// eval generates code computing a Word expression.
func (g *gen) eval(e *Expr) val {
	if e.typ != Word {
		fail("float value in integer context")
	}
	switch e.kind {
	case kConst:
		r := g.alloc()
		g.movConst(r, e.val)
		return val{r, true}
	case kWordBytes:
		r := g.alloc()
		g.movConst(r, int64(g.t.wordBytes))
		return val{r, true}
	case kWordShift:
		r := g.alloc()
		g.movConst(r, g.t.wordShift)
		return val{r, true}
	case kTC:
		r := g.alloc()
		g.movConst(r, g.t.tcValue(TargetConst(e.sys)))
		return val{r, true}
	case kVar:
		h, ok := g.homes[e.v]
		if !ok || e.v.fn != g.f {
			fail("variable %q does not belong to %q", e.v.Name, g.f.Name)
		}
		if h.inReg {
			return val{h.reg, false}
		}
		r := g.alloc()
		g.ldrSlot(r, h.off)
		return val{r, true}
	case kGlobal:
		r := g.alloc()
		g.addrPair(r, e.gname, e.val)
		return val{r, true}
	case kBin:
		return g.evalBin(e)
	case kNeg:
		a := g.eval(e.a)
		rd := g.reuse(a)
		g.emit(isa.Instr{Op: isa.OpNEG, Cond: isa.CondAL, Rd: rd, Rm: a.reg})
		return val{rd, true}
	case kLoad, kLoadW, kLoadB:
		base, off := g.addrOperand(e.a)
		op := isa.OpLDR
		switch {
		case e.kind == kLoadB:
			op = isa.OpLDRB
		case e.kind == kLoadW && g.t.wordBytes == 8:
			op = isa.OpLDRW
		}
		rd := g.reuse(base)
		g.emit(isa.Instr{Op: op, Cond: isa.CondAL, Rd: rd, Rn: base.reg, Imm: off})
		return val{rd, true}
	case kCall:
		return g.genCall(e.callee, e.args, true)
	case kCallInd:
		return g.genCallInd(e, true)
	case kSyscall:
		return g.genSyscall(e)
	case kMRS:
		r := g.alloc()
		g.emit(isa.Instr{Op: isa.OpMRS, Cond: isa.CondAL, Rd: r, Imm: int64(e.sys)})
		return val{r, true}
	case kCAS:
		a := g.eval(e.a)
		o := g.eval(e.b)
		n := g.eval(e.args[0])
		rd := g.alloc()
		g.emit(isa.Instr{Op: isa.OpCAS, Cond: isa.CondAL, Rd: rd, Rn: a.reg, Rm: n.reg, Ra: o.reg})
		g.free(n)
		g.free(o)
		g.free(a)
		return val{rd, true}
	case kBool:
		return g.genBool(e.cond)
	case kMulHi:
		a := g.eval(e.a)
		b := g.eval(e.b)
		rd := g.reuse(a)
		if g.t.wordBytes == 4 {
			// UMULL writes lo into a scratch temp, hi into rd.
			lo := g.alloc()
			g.emit(isa.Instr{Op: isa.OpUMULL, Cond: isa.CondAL, Rd: lo, Ra: rd, Rn: a.reg, Rm: b.reg})
			g.freeReg(lo)
		} else {
			g.emit(isa.Instr{Op: isa.OpMUL, Cond: isa.CondAL, Rd: rd, Rn: a.reg, Rm: b.reg})
			g.emit(isa.Instr{Op: isa.OpLSRI, Cond: isa.CondAL, Rd: rd, Rn: rd, Imm: 32})
		}
		g.free(b)
		return val{rd, true}
	case kClz:
		a := g.eval(e.a)
		rd := g.reuse(a)
		g.emit(isa.Instr{Op: isa.OpCLZ, Cond: isa.CondAL, Rd: rd, Rm: a.reg})
		return val{rd, true}
	case kCvtFW:
		if g.t.softFloat {
			fa := g.evalF7(e.a)
			g.mov(g.t.argRegs[0], fa.addr.reg)
			g.freeF7(fa)
			g.emitCall("__f64_tow")
			rd := g.alloc()
			g.mov(rd, g.t.argRegs[0])
			return val{rd, true}
		}
		fa := g.evalF8(e.a)
		rd := g.alloc()
		g.emit(isa.Instr{Op: isa.OpFCVTZS, Cond: isa.CondAL, Rd: rd, Rn: fa.reg})
		g.freeFv(fa)
		return val{rd, true}
	}
	fail("unhandled expression kind %d", e.kind)
	return val{}
}

// evalBin handles integer binary operators with immediate peepholes.
func (g *gen) evalBin(e *Expr) val {
	switch e.op {
	case OpURem, OpSRem:
		a := g.eval(e.a)
		b := g.eval(e.b)
		q := g.alloc()
		div := isa.OpUDIV
		if e.op == OpSRem {
			div = isa.OpSDIV
		}
		g.emit(isa.Instr{Op: div, Cond: isa.CondAL, Rd: q, Rn: a.reg, Rm: b.reg})
		g.emit(isa.Instr{Op: isa.OpMUL, Cond: isa.CondAL, Rd: q, Rn: q, Rm: b.reg})
		rd := g.reuse(a)
		g.emit(isa.Instr{Op: isa.OpSUB, Cond: isa.CondAL, Rd: rd, Rn: a.reg, Rm: q})
		g.freeReg(q)
		g.free(b)
		return val{rd, true}
	}
	if e.typ == F64 {
		fail("float binop reached integer path")
	}
	// Immediate forms.
	if imm, ok := binImmTable[e.op]; ok && e.b.kind == kConst {
		c := e.b.val
		shiftOp := e.op == OpShl || e.op == OpShr || e.op == OpSar
		if (shiftOp && c >= 0 && c < 64) || (!shiftOp && g.t.fitsImm(c)) {
			a := g.eval(e.a)
			rd := g.reuse(a)
			g.emit(isa.Instr{Op: imm, Cond: isa.CondAL, Rd: rd, Rn: a.reg, Imm: c})
			return val{rd, true}
		}
	}
	op, ok := binOpTable[e.op]
	if !ok {
		fail("unsupported binary operator %d", e.op)
	}
	a := g.eval(e.a)
	b := g.eval(e.b)
	rd := g.reuse(a)
	g.emit(isa.Instr{Op: op, Cond: isa.CondAL, Rd: rd, Rn: a.reg, Rm: b.reg})
	g.free(b)
	return val{rd, true}
}

// addrOperand reduces an address expression to base register + immediate.
func (g *gen) addrOperand(e *Expr) (val, int64) {
	if e.kind == kBin && e.op == OpAdd && e.b.kind == kConst && g.t.fitsImm(e.b.val) {
		return g.eval(e.a), e.b.val
	}
	if e.kind == kGlobal {
		r := g.alloc()
		g.addrPair(r, e.gname, e.val)
		return val{r, true}, 0
	}
	return g.eval(e), 0
}

// emitCall emits a BL with a call relocation.
func (g *gen) emitCall(sym string) {
	idx := g.emit(isa.Instr{Op: isa.OpBL, Cond: isa.CondAL})
	g.srel = append(g.srel, SymReloc{Idx: idx, Kind: RelCall, Sym: sym})
}

// genCall evaluates arguments, moves them into the argument registers and
// calls; the result (r0) is copied into a fresh temp when wanted.
func (g *gen) genCall(callee string, args []*Expr, want bool) val {
	vals := make([]val, len(args))
	for i, a := range args {
		vals[i] = g.eval(a)
	}
	for i, v := range vals {
		g.mov(g.t.argRegs[i], v.reg)
	}
	for _, v := range vals {
		g.free(v)
	}
	g.emitCall(callee)
	if !want {
		return val{}
	}
	rd := g.alloc()
	g.mov(rd, g.t.argRegs[0])
	return val{rd, true}
}

// genCallInd evaluates the target and arguments, then branches with link
// through the target register.
func (g *gen) genCallInd(e *Expr, want bool) val {
	tv := g.eval(e.a)
	vals := make([]val, len(e.args))
	for i, a := range e.args {
		vals[i] = g.eval(a)
	}
	for i, v := range vals {
		g.mov(g.t.argRegs[i], v.reg)
	}
	for _, v := range vals {
		g.free(v)
	}
	g.emit(isa.Instr{Op: isa.OpBLR, Cond: isa.CondAL, Rn: tv.reg})
	g.free(tv)
	if !want {
		return val{}
	}
	rd := g.alloc()
	g.mov(rd, g.t.argRegs[0])
	return val{rd, true}
}

// genSyscall loads up to three arguments, the syscall number, and traps.
func (g *gen) genSyscall(e *Expr) val {
	vals := make([]val, len(e.args))
	for i, a := range e.args {
		vals[i] = g.eval(a)
	}
	for i, v := range vals {
		g.mov(g.t.argRegs[i], v.reg)
	}
	for _, v := range vals {
		g.free(v)
	}
	g.movConst(g.t.sysNumReg, e.val)
	g.emit(isa.Instr{Op: isa.OpSVC, Cond: isa.CondAL})
	rd := g.alloc()
	g.mov(rd, g.t.argRegs[0])
	return val{rd, true}
}

var intCC = map[CondKind]isa.Cond{
	CEq: isa.CondEQ, CNe: isa.CondNE,
	CLt: isa.CondLT, CLe: isa.CondLE, CGt: isa.CondGT, CGe: isa.CondGE,
	CLtU: isa.CondLO, CLeU: isa.CondLS, CGtU: isa.CondHI, CGeU: isa.CondHS,
}

var floatCC = map[CondKind]isa.Cond{
	CFEq: isa.CondEQ, CFNe: isa.CondNE,
	CFLt: isa.CondMI, CFLe: isa.CondLS, CFGt: isa.CondGT, CFGe: isa.CondGE,
}

// setIntFlags emits the compare for a leaf integer condition and returns the
// condition code meaning "condition holds".
func (g *gen) setIntFlags(c *Cond) isa.Cond {
	a := g.eval(c.a)
	if c.b.kind == kConst && g.t.fitsImm(c.b.val) {
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: a.reg, Imm: c.b.val})
	} else {
		b := g.eval(c.b)
		g.emit(isa.Instr{Op: isa.OpCMP, Cond: isa.CondAL, Rn: a.reg, Rm: b.reg})
		g.free(b)
	}
	g.free(a)
	return intCC[c.kind]
}

// setFloatFlagsV8 emits an FCMP and returns the holding condition.
func (g *gen) setFloatFlagsV8(c *Cond) isa.Cond {
	fa := g.evalF8(c.a)
	fb := g.evalF8(c.b)
	g.emit(isa.Instr{Op: isa.OpFCMP, Cond: isa.CondAL, Rn: fa.reg, Rm: fb.reg})
	g.freeFv(fb)
	g.freeFv(fa)
	return floatCC[c.kind]
}

// floatCmpV7 calls __f64_cmp and reduces the {0 eq,1 lt,2 gt,3 unordered}
// result to flags; it returns the holding condition code.
func (g *gen) floatCmpV7(c *Cond) isa.Cond {
	fa := g.evalF7(c.a)
	fb := g.evalF7(c.b)
	g.mov(g.t.argRegs[0], fa.addr.reg)
	g.mov(g.t.argRegs[1], fb.addr.reg)
	g.freeF7(fa)
	g.freeF7(fb)
	g.emitCall("__f64_cmp")
	r0 := g.t.argRegs[0]
	switch c.kind {
	case CFEq:
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: r0, Imm: 0})
		return isa.CondEQ
	case CFNe:
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: r0, Imm: 0})
		return isa.CondNE
	case CFLt:
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: r0, Imm: 1})
		return isa.CondEQ
	case CFLe:
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: r0, Imm: 1})
		return isa.CondLS
	case CFGt:
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: r0, Imm: 2})
		return isa.CondEQ
	default: // CFGe: bit0 clear means 0 (eq) or 2 (gt)
		t := g.alloc()
		g.emit(isa.Instr{Op: isa.OpANDI, Cond: isa.CondAL, Rd: t, Rn: r0, Imm: 1})
		g.emit(isa.Instr{Op: isa.OpCMPI, Cond: isa.CondAL, Rn: t, Imm: 0})
		g.freeReg(t)
		return isa.CondEQ
	}
}

// condJump branches to l when the condition's truth equals whenTrue.
func (g *gen) condJump(c *Cond, l int, whenTrue bool) {
	switch c.kind {
	case CAnd:
		if whenTrue {
			skip := g.label()
			g.condJump(c.l, skip, false)
			g.condJump(c.r, l, true)
			g.place(skip)
		} else {
			g.condJump(c.l, l, false)
			g.condJump(c.r, l, false)
		}
		return
	case COr:
		if whenTrue {
			g.condJump(c.l, l, true)
			g.condJump(c.r, l, true)
		} else {
			skip := g.label()
			g.condJump(c.l, skip, true)
			g.condJump(c.r, l, false)
			g.place(skip)
		}
		return
	case CNot:
		g.condJump(c.l, l, !whenTrue)
		return
	}
	var cc isa.Cond
	switch {
	case c.kind >= CFEq && c.kind <= CFGe:
		if g.t.softFloat {
			cc = g.floatCmpV7(c)
		} else {
			cc = g.setFloatFlagsV8(c)
		}
	default:
		cc = g.setIntFlags(c)
	}
	if !whenTrue {
		cc = cc.Invert()
	}
	g.branch(cc, l)
}

// genBool materializes a condition as 0/1.
func (g *gen) genBool(c *Cond) val {
	// Leaf conditions use the conditional-select idiom of each ISA:
	// cset on armv8, a predicated move on armv7.
	leafInt := c.kind <= CGeU
	leafFloat := c.kind >= CFEq && c.kind <= CFGe && !g.t.softFloat
	if leafInt || leafFloat {
		var cc isa.Cond
		if leafInt {
			cc = g.setIntFlags(c)
		} else {
			cc = g.setFloatFlagsV8(c)
		}
		rd := g.alloc()
		if g.t.feat.HasPred {
			g.emit(isa.Instr{Op: isa.OpMOVZ, Cond: isa.CondAL, Rd: rd, Imm: 0})
			g.emitCond(isa.Instr{Op: isa.OpMOVZ, Cond: cc, Rd: rd, Imm: 1})
		} else {
			g.emitCond(isa.Instr{Op: isa.OpCSET, Cond: cc, Rd: rd})
		}
		return val{rd, true}
	}
	rd := g.alloc()
	g.movConst(rd, 0)
	end := g.label()
	g.condJump(c, end, false)
	g.movConst(rd, 1)
	g.place(end)
	return val{rd, true}
}

// ---- float64 evaluation, hardware-FP target ----

func (g *gen) evalF8(e *Expr) fv8 {
	switch e.kind {
	case kVar:
		h := g.homes[e.v]
		if h.inReg {
			return fv8{h.reg, false}
		}
		ft := g.allocF()
		g.emit(isa.Instr{Op: isa.OpFLDR, Cond: isa.CondAL, Rd: ft, Rn: g.t.sp, Imm: int64(h.off)})
		return fv8{ft, true}
	case kConstF:
		it := g.alloc()
		g.movConst(it, int64(math.Float64bits(e.fval)))
		ft := g.allocF()
		g.emit(isa.Instr{Op: isa.OpFMOVIF, Cond: isa.CondAL, Rd: ft, Rn: it})
		g.freeReg(it)
		return fv8{ft, true}
	case kBin:
		fa := g.evalF8(e.a)
		fb := g.evalF8(e.b)
		rd := fa.reg
		if !fa.owned {
			rd = g.allocF()
		}
		var op isa.Op
		switch e.op {
		case OpFAdd:
			op = isa.OpFADD
		case OpFSub:
			op = isa.OpFSUB
		case OpFMul:
			op = isa.OpFMUL
		case OpFDiv:
			op = isa.OpFDIV
		default:
			fail("bad float binop")
		}
		g.emit(isa.Instr{Op: op, Cond: isa.CondAL, Rd: rd, Rn: fa.reg, Rm: fb.reg})
		g.freeFv(fb)
		return fv8{rd, true}
	case kLoadF:
		base, off := g.addrOperand(e.a)
		ft := g.allocF()
		g.emit(isa.Instr{Op: isa.OpFLDR, Cond: isa.CondAL, Rd: ft, Rn: base.reg, Imm: off})
		g.free(base)
		return fv8{ft, true}
	case kSqrt, kFNeg, kFAbs:
		fa := g.evalF8(e.a)
		rd := fa.reg
		if !fa.owned {
			rd = g.allocF()
		}
		op := isa.OpFSQRT
		if e.kind == kFNeg {
			op = isa.OpFNEG
		} else if e.kind == kFAbs {
			op = isa.OpFABS
		}
		g.emit(isa.Instr{Op: op, Cond: isa.CondAL, Rd: rd, Rm: fa.reg})
		return fv8{rd, true}
	case kCvtWF:
		iv := g.eval(e.a)
		ft := g.allocF()
		g.emit(isa.Instr{Op: isa.OpSCVTF, Cond: isa.CondAL, Rd: ft, Rn: iv.reg})
		g.free(iv)
		return fv8{ft, true}
	}
	fail("unhandled float expression kind %d", e.kind)
	return fv8{}
}

// ---- float64 evaluation, soft-float target ----

var sfBinName = map[BinOp]string{
	OpFAdd: "__f64_add", OpFSub: "__f64_sub",
	OpFMul: "__f64_mul", OpFDiv: "__f64_div",
}

// sfCall2 emits dst/a (and optionally b) pointer arguments and calls fn.
func (g *gen) sfCall(fn string, dstOff int32, a fv7, b *fv7) {
	g.spAdd(g.t.argRegs[0], uint32(dstOff))
	g.mov(g.t.argRegs[1], a.addr.reg)
	if b != nil {
		g.mov(g.t.argRegs[2], b.addr.reg)
	}
	g.freeF7(a)
	if b != nil {
		g.freeF7(*b)
	}
	g.emitCall(fn)
}

// slotAddr materializes the address of a frame slot as an fv7.
func (g *gen) slotAddr(slot int32) fv7 {
	r := g.alloc()
	g.spAdd(r, uint32(slot))
	return fv7{addr: val{r, true}, slot: slot}
}

func (g *gen) evalF7(e *Expr) fv7 {
	switch e.kind {
	case kVar:
		h := g.homes[e.v] // always a frame slot on the soft-float target
		r := g.alloc()
		g.spAdd(r, h.off)
		return fv7{addr: val{r, true}, slot: -1}
	case kConstF:
		name := g.p.f64Const(e.fval)
		r := g.alloc()
		g.addrPair(r, name, 0)
		return fv7{addr: val{r, true}, slot: -1}
	case kLoadF:
		a := g.eval(e.a)
		return fv7{addr: a, slot: -1}
	case kBin:
		fn, ok := sfBinName[e.op]
		if !ok {
			fail("bad float binop")
		}
		fa := g.evalF7(e.a)
		fb := g.evalF7(e.b)
		dst := g.f64slot()
		g.sfCall(fn, dst, fa, &fb)
		return g.slotAddr(dst)
	case kSqrt, kFNeg, kFAbs:
		fn := "__f64_sqrt"
		if e.kind == kFNeg {
			fn = "__f64_neg"
		} else if e.kind == kFAbs {
			fn = "__f64_abs"
		}
		fa := g.evalF7(e.a)
		dst := g.f64slot()
		g.sfCall(fn, dst, fa, nil)
		return g.slotAddr(dst)
	case kCvtWF:
		iv := g.eval(e.a)
		dst := g.f64slot()
		g.spAdd(g.t.argRegs[0], uint32(dst))
		g.mov(g.t.argRegs[1], iv.reg)
		g.free(iv)
		g.emitCall("__f64_fromw")
		return g.slotAddr(dst)
	}
	fail("unhandled soft-float expression kind %d", e.kind)
	return fv7{}
}

// copy8 copies 8 bytes between addresses held in registers (soft-float
// target; word size 4).
func (g *gen) copy8(dst uint8, dstOff int64, src uint8, srcOff int64) {
	t := g.alloc()
	g.emit(isa.Instr{Op: isa.OpLDR, Cond: isa.CondAL, Rd: t, Rn: src, Imm: srcOff})
	g.emit(isa.Instr{Op: isa.OpSTR, Cond: isa.CondAL, Rd: t, Rn: dst, Imm: dstOff})
	g.emit(isa.Instr{Op: isa.OpLDR, Cond: isa.CondAL, Rd: t, Rn: src, Imm: srcOff + 4})
	g.emit(isa.Instr{Op: isa.OpSTR, Cond: isa.CondAL, Rd: t, Rn: dst, Imm: dstOff + 4})
	g.freeReg(t)
}

// ---- statements ----

func (g *gen) stmts(list []*Stmt) {
	for _, s := range list {
		g.stmt(s)
	}
}

func (g *gen) stmt(s *Stmt) {
	t := g.t
	switch s.kind {
	case sAssign:
		h := g.homes[s.v]
		if s.v.Typ == Word {
			v := g.eval(s.e)
			if h.inReg {
				g.mov(h.reg, v.reg)
			} else {
				g.strSlot(v.reg, h.off)
			}
			g.free(v)
			return
		}
		if t.softFloat {
			fv := g.evalF7(s.e)
			dst := g.alloc()
			g.spAdd(dst, h.off)
			g.copy8(dst, 0, fv.addr.reg, 0)
			g.freeReg(dst)
			g.freeF7(fv)
			return
		}
		fv := g.evalF8(s.e)
		if h.inReg {
			if fv.reg != h.reg {
				g.emit(isa.Instr{Op: isa.OpFMOVD, Cond: isa.CondAL, Rd: h.reg, Rm: fv.reg})
			}
		} else {
			g.emit(isa.Instr{Op: isa.OpFSTR, Cond: isa.CondAL, Rd: fv.reg, Rn: t.sp, Imm: int64(h.off)})
		}
		g.freeFv(fv)

	case sStore, sStoreW, sStoreB:
		base, off := g.addrOperand(s.addr)
		v := g.eval(s.e)
		op := isa.OpSTR
		switch {
		case s.kind == sStoreB:
			op = isa.OpSTRB
		case s.kind == sStoreW && t.wordBytes == 8:
			op = isa.OpSTRW
		}
		g.emit(isa.Instr{Op: op, Cond: isa.CondAL, Rd: v.reg, Rn: base.reg, Imm: off})
		g.free(v)
		g.free(base)

	case sStoreF:
		if t.softFloat {
			fv := g.evalF7(s.e)
			base, off := g.addrOperand(s.addr)
			g.copy8(base.reg, off, fv.addr.reg, 0)
			g.free(base)
			g.freeF7(fv)
			return
		}
		fv := g.evalF8(s.e)
		base, off := g.addrOperand(s.addr)
		g.emit(isa.Instr{Op: isa.OpFSTR, Cond: isa.CondAL, Rd: fv.reg, Rn: base.reg, Imm: off})
		g.free(base)
		g.freeFv(fv)

	case sIf:
		if len(s.els) == 0 {
			end := g.label()
			g.condJump(s.cond, end, false)
			g.stmts(s.body)
			g.place(end)
			return
		}
		elseL := g.label()
		end := g.label()
		g.condJump(s.cond, elseL, false)
		g.stmts(s.body)
		g.branch(isa.CondAL, end)
		g.place(elseL)
		g.stmts(s.els)
		g.place(end)

	case sWhile:
		head := g.label()
		end := g.label()
		g.place(head)
		g.condJump(s.cond, end, false)
		g.loops = append(g.loops, loopLabels{cont: head, brk: end})
		g.stmts(s.body)
		g.loops = g.loops[:len(g.loops)-1]
		g.branch(isa.CondAL, head)
		g.place(end)

	case sBreak:
		if len(g.loops) == 0 {
			fail("break outside loop")
		}
		g.branch(isa.CondAL, g.loops[len(g.loops)-1].brk)
	case sContinue:
		if len(g.loops) == 0 {
			fail("continue outside loop")
		}
		g.branch(isa.CondAL, g.loops[len(g.loops)-1].cont)

	case sRet:
		if s.e != nil {
			v := g.eval(s.e)
			g.mov(t.argRegs[0], v.reg)
			g.free(v)
		}
		g.branch(isa.CondAL, g.retLabel)

	case sExpr:
		if s.e.kind == kCall {
			g.genCall(s.e.callee, s.e.args, false)
			return
		}
		if s.e.kind == kCallInd {
			g.genCallInd(s.e, false)
			return
		}
		v := g.eval(s.e)
		g.free(v)

	case sMSR:
		v := g.eval(s.e)
		g.emit(isa.Instr{Op: isa.OpMSR, Cond: isa.CondAL, Rn: v.reg, Imm: int64(s.sys)})
		g.free(v)
	case sEret:
		g.emit(al(isa.OpERET))
	case sSaveCtx:
		g.emit(al(isa.OpSAVECTX))
	case sRestCtx:
		g.emit(al(isa.OpRESTCTX))
	case sWfi:
		g.emit(al(isa.OpWFI))
	case sHalt:
		g.emit(al(isa.OpHALT))
	case sSetSP:
		v := g.eval(s.e)
		g.mov(t.sp, v.reg)
		g.free(v)
	default:
		fail("unhandled statement kind %d", s.kind)
	}
}

// assemble prepends the prologue, appends the epilogue, resolves local
// branches and validates every instruction encodes.
func (g *gen) assemble() *CompiledFunc {
	t := g.t
	wb := t.wordBytes

	if g.f.Naked {
		return g.assembleNaked()
	}

	var calleeInts []uint8
	for r := uint8(0); r < 32; r++ {
		if g.usedReg[r] && !isArgReg(t, r) && r != t.sp && r != t.lr && r != t.sysNumReg {
			calleeInts = append(calleeInts, r)
		}
	}
	var calleeF []uint8
	for r := uint8(0); r < 32; r++ {
		if g.usedFReg[r] {
			calleeF = append(calleeF, r)
		}
	}
	sort.Slice(calleeInts, func(i, j int) bool { return calleeInts[i] < calleeInts[j] })
	sort.Slice(calleeF, func(i, j int) bool { return calleeF[i] < calleeF[j] })

	s := (g.frameOff + 7) &^ 7
	intArea := wb * uint32(1+len(calleeInts)) // lr + callee ints
	fBase := (s + intArea + 7) &^ 7
	frame := (fBase + 8*uint32(len(calleeF)) + 15) &^ 15
	if !t.fitsImm(int64(frame)) || !t.fitsImm(int64(fBase+8*uint32(len(calleeF)))) {
		fail("frame too large (%d bytes)", frame)
	}

	var pro []isa.Instr
	pe := func(ins isa.Instr) {
		ins.Cond = isa.CondAL
		pro = append(pro, ins)
	}
	pe(isa.Instr{Op: isa.OpSUBI, Rd: t.sp, Rn: t.sp, Imm: int64(frame)})
	pe(isa.Instr{Op: isa.OpSTR, Rd: t.lr, Rn: t.sp, Imm: int64(s)})
	for i, r := range calleeInts {
		pe(isa.Instr{Op: isa.OpSTR, Rd: r, Rn: t.sp, Imm: int64(s + wb*uint32(1+i))})
	}
	for j, r := range calleeF {
		pe(isa.Instr{Op: isa.OpFSTR, Rd: r, Rn: t.sp, Imm: int64(fBase + 8*uint32(j))})
	}

	var epi []isa.Instr
	ee := func(ins isa.Instr) {
		ins.Cond = isa.CondAL
		epi = append(epi, ins)
	}
	ee(isa.Instr{Op: isa.OpLDR, Rd: t.lr, Rn: t.sp, Imm: int64(s)})
	for i, r := range calleeInts {
		ee(isa.Instr{Op: isa.OpLDR, Rd: r, Rn: t.sp, Imm: int64(s + wb*uint32(1+i))})
	}
	for j, r := range calleeF {
		ee(isa.Instr{Op: isa.OpFLDR, Rd: r, Rn: t.sp, Imm: int64(fBase + 8*uint32(j))})
	}
	ee(isa.Instr{Op: isa.OpADDI, Rd: t.sp, Rn: t.sp, Imm: int64(frame)})
	ee(isa.Instr{Op: isa.OpBR, Rn: t.lr})

	shift := len(pro)
	code := make([]isa.Instr, 0, shift+len(g.body)+len(epi))
	code = append(code, pro...)
	code = append(code, g.body...)
	g.labels[g.retLabel] = len(g.body) // relative to body
	code = append(code, epi...)

	// Resolve local branches.
	for _, br := range g.brefs {
		pos, ok := g.labels[br.label]
		if !ok {
			fail("unplaced label %d", br.label)
		}
		code[br.idx+shift].Imm = int64(pos - br.idx)
	}
	// Shift symbol relocations.
	relocs := make([]SymReloc, len(g.srel))
	for i, r := range g.srel {
		r.Idx += shift
		relocs[i] = r
	}
	// Validate encodability (symbolic instructions get placeholder 0 Imm,
	// which always encodes).
	for i, ins := range code {
		if _, err := t.codec.Encode(ins); err != nil {
			fail("instruction %d (%s) not encodable: %v", i, isa.Disasm(t.feat, ins), err)
		}
	}
	return &CompiledFunc{Name: g.f.Name, Code: code, Relocs: relocs}
}

// assembleNaked finalizes a prologue-less function. Control falling off the
// end hits an appended HALT guard.
func (g *gen) assembleNaked() *CompiledFunc {
	if len(g.f.Params) > 0 {
		fail("naked function cannot take parameters")
	}
	if g.frameOff > 0 {
		fail("naked function must not use stack slots (register locals only)")
	}
	for _, br := range g.brefs {
		if br.label == g.retLabel {
			fail("naked function must not return")
		}
	}
	code := append([]isa.Instr(nil), g.body...)
	code = append(code, isa.Instr{Op: isa.OpHALT, Cond: isa.CondAL})
	for _, br := range g.brefs {
		pos, ok := g.labels[br.label]
		if !ok {
			fail("unplaced label %d", br.label)
		}
		code[br.idx].Imm = int64(pos - br.idx)
	}
	relocs := append([]SymReloc(nil), g.srel...)
	for i, ins := range code {
		if _, err := g.t.codec.Encode(ins); err != nil {
			fail("instruction %d (%s) not encodable: %v", i, isa.Disasm(g.t.feat, ins), err)
		}
	}
	return &CompiledFunc{Name: g.f.Name, Code: code, Relocs: relocs}
}

func isArgReg(t *target, r uint8) bool {
	for _, a := range t.argRegs {
		if a == r {
			return true
		}
	}
	// x0-x7 are argument/scratch registers on the 64-bit target even
	// though we only pass four arguments.
	if t.wordBytes == 8 && r < 8 {
		return true
	}
	return false
}
