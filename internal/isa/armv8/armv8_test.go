package armv8

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"serfi/internal/isa"
)

// randInstr builds a random encodable armv8 instruction.
func randInstr(r *rand.Rand) isa.Instr {
	ops := []isa.Op{
		isa.OpNOP, isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpUDIV, isa.OpSDIV,
		isa.OpAND, isa.OpORR, isa.OpEOR, isa.OpLSL, isa.OpLSR, isa.OpASR,
		isa.OpMVN, isa.OpNEG, isa.OpCLZ, isa.OpUMULH,
		isa.OpADDI, isa.OpSUBI, isa.OpANDI, isa.OpORRI, isa.OpEORI,
		isa.OpLSLI, isa.OpLSRI, isa.OpASRI, isa.OpMOVZ, isa.OpMOVK,
		isa.OpCMP, isa.OpCMPI, isa.OpCSEL, isa.OpCSET,
		isa.OpB, isa.OpBL, isa.OpBR, isa.OpBLR, isa.OpCBZ, isa.OpCBNZ,
		isa.OpLDR, isa.OpSTR, isa.OpLDRW, isa.OpSTRW, isa.OpLDRB, isa.OpSTRB,
		isa.OpFLDR, isa.OpFSTR, isa.OpFADD, isa.OpFSUB, isa.OpFMUL,
		isa.OpFDIV, isa.OpFSQRT, isa.OpFNEG, isa.OpFABS, isa.OpFCMP,
		isa.OpFMOVFI, isa.OpFMOVIF, isa.OpSCVTF, isa.OpFCVTZS,
		isa.OpCAS, isa.OpSVC, isa.OpERET, isa.OpMRS, isa.OpMSR,
		isa.OpSAVECTX, isa.OpRESTCTX, isa.OpWFI, isa.OpHALT,
	}
	op := ops[r.Intn(len(ops))]
	ins := isa.Instr{Op: op, Cond: isa.CondAL}
	reg := func() uint8 { return uint8(r.Intn(32)) }
	cond := func() isa.Cond { return isa.Cond(r.Intn(15)) }
	switch isa.FormatOf(op) {
	case isa.FmtR3, isa.FmtFR3:
		ins.Rd, ins.Rn, ins.Rm = reg(), reg(), reg()
	case isa.FmtR2, isa.FmtFR2:
		ins.Rd, ins.Rm = reg(), reg()
	case isa.FmtR4:
		ins.Rd, ins.Rn, ins.Rm, ins.Ra = reg(), reg(), reg(), reg()
	case isa.FmtRI, isa.FmtMEM, isa.FmtFMEM:
		ins.Rd, ins.Rn = reg(), reg()
		ins.Imm = int64(r.Intn(1<<14) - 1<<13)
	case isa.FmtMOV:
		ins.Rd = reg()
		ins.Imm = int64(r.Intn(0x10000))
		ins.Ra = uint8(r.Intn(4))
	case isa.FmtCMP, isa.FmtFCMP:
		ins.Rn, ins.Rm = reg(), reg()
	case isa.FmtCMPI:
		ins.Rn = reg()
		ins.Imm = int64(r.Intn(1<<14) - 1<<13)
	case isa.FmtB:
		if op == isa.OpB && r.Intn(2) == 0 {
			ins.Cond = cond()
			ins.Imm = int64(r.Intn(1<<20) - 1<<19)
		} else {
			ins.Imm = int64(r.Intn(1<<24) - 1<<23)
		}
	case isa.FmtBR:
		ins.Rn = reg()
	case isa.FmtCB:
		ins.Rn = reg()
		ins.Imm = int64(r.Intn(1<<19) - 1<<18)
	case isa.FmtFI:
		ins.Rd, ins.Rn = reg(), reg()
	case isa.FmtSYS:
		if op == isa.OpMRS {
			ins.Rd = reg()
		} else {
			ins.Rn = reg()
		}
		ins.Imm = int64(r.Intn(isa.NumSysregs))
	case isa.FmtSVC:
		ins.Imm = int64(r.Intn(0x10000))
	case isa.FmtCSEL:
		ins.Rd, ins.Rn, ins.Rm = reg(), reg(), reg()
		ins.Cond = cond()
	case isa.FmtCSET:
		ins.Rd = reg()
		ins.Cond = cond()
	}
	return ins
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var codec ISA
	for i := 0; i < 20000; i++ {
		want := randInstr(r)
		w, err := codec.Encode(want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got := codec.Decode(w)
		if got != want {
			t.Fatalf("round trip %d: encoded %+v as %#x, decoded %+v", i, want, w, got)
		}
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	var codec ISA
	decodeWords(t, 17, func(w uint32) error {
		ins := codec.Decode(w)
		if ins.Op == isa.OpINVALID || ins.Cond > isa.CondAL {
			return nil
		}
		w2, err := codec.Encode(ins)
		if err != nil {
			return fmt.Errorf("decode(%#x)=%+v not re-encodable: %v", w, ins, err)
		}
		if codec.Decode(w2) != ins {
			return fmt.Errorf("decode(encode(decode(%#x))) mismatch: %+v", w, ins)
		}
		return nil
	})
}

// decodeWords runs check on 100,000 seeded random words, or on all 2^32
// words across GOMAXPROCS goroutines under SERFI_LOCKSTEP=full (the CI
// lockstep job). It reports the first failing word of each goroutine.
func decodeWords(t *testing.T, seed int64, check func(w uint32) error) {
	if os.Getenv("SERFI_LOCKSTEP") != "full" {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100000; i++ {
			if err := check(r.Uint32()); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	n := uint64(runtime.GOMAXPROCS(0))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i := uint64(0); i < n; i++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			for w := lo; w < hi && !failed.Load(); w++ {
				if err := check(uint32(w)); err != nil {
					failed.Store(true)
					t.Error(err)
				}
			}
		}(i<<32/n, (i+1)<<32/n)
	}
	wg.Wait()
}

func TestV7OnlyOpsRejected(t *testing.T) {
	var codec ISA
	if _, err := codec.Encode(isa.Instr{Op: isa.OpUMULL, Cond: isa.CondAL}); err == nil {
		t.Error("umull should not encode on armv8")
	}
}

func TestPredicationRejected(t *testing.T) {
	var codec ISA
	ins := isa.Instr{Op: isa.OpADD, Cond: isa.CondNE, Rd: 1, Rn: 2, Rm: 3}
	if _, err := codec.Encode(ins); err == nil {
		t.Error("predicated add should not encode on armv8")
	}
}

func TestConditionalBranchForm(t *testing.T) {
	var codec ISA
	ins := isa.Instr{Op: isa.OpB, Cond: isa.CondLT, Imm: -42}
	w, err := codec.Encode(ins)
	if err != nil {
		t.Fatal(err)
	}
	if w>>24 != opBcond {
		t.Errorf("conditional branch must use dedicated opcode, got %#x", w)
	}
	if got := codec.Decode(w); got != ins {
		t.Errorf("round trip: %+v != %+v", got, ins)
	}
}

func TestFeatures(t *testing.T) {
	f := New().Feat()
	if f.WordBytes != 8 || f.NumGPR != 32 || f.PCTarget || f.FaultTargets != 32 {
		t.Errorf("unexpected features: %+v", f)
	}
	if !f.HasHWFloat || f.HasPred || f.NumFP != 32 {
		t.Errorf("armv8 must have hardware FP and no predication: %+v", f)
	}
	if f.FaultTargets*8*f.WordBytes != 2048 {
		t.Errorf("fault-target bits = %d, want 2048", f.FaultTargets*8*f.WordBytes)
	}
}

func TestFaultTargetGrowthFactorOfFour(t *testing.T) {
	// The paper's §4.1.2: moving from v7 to v8 grows the injectable
	// register bits by exactly 4x (512 -> 2048).
	v8 := New().Feat()
	if v8.FaultTargets*v8.WordBytes*8 != 4*512 {
		t.Errorf("v8 fault bits = %d, want 2048", v8.FaultTargets*v8.WordBytes*8)
	}
}
