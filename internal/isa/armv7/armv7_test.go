package armv7

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

// randInstr builds a random encodable armv7 instruction.
func randInstr(r *rand.Rand) isa.Instr {
	ops := []isa.Op{
		isa.OpNOP, isa.OpADD, isa.OpSUB, isa.OpMUL, isa.OpUDIV, isa.OpSDIV,
		isa.OpAND, isa.OpORR, isa.OpEOR, isa.OpLSL, isa.OpLSR, isa.OpASR,
		isa.OpMVN, isa.OpNEG, isa.OpCLZ, isa.OpUMULL,
		isa.OpADDI, isa.OpSUBI, isa.OpANDI, isa.OpORRI, isa.OpEORI,
		isa.OpLSLI, isa.OpLSRI, isa.OpASRI, isa.OpMOVZ, isa.OpMOVK,
		isa.OpCMP, isa.OpCMPI, isa.OpB, isa.OpBL, isa.OpBR, isa.OpBLR,
		isa.OpLDR, isa.OpSTR, isa.OpLDRB, isa.OpSTRB, isa.OpCAS,
		isa.OpSVC, isa.OpERET, isa.OpMRS, isa.OpMSR,
		isa.OpSAVECTX, isa.OpRESTCTX, isa.OpWFI, isa.OpHALT,
	}
	op := ops[r.Intn(len(ops))]
	ins := isa.Instr{Op: op, Cond: isa.Cond(r.Intn(15))}
	reg := func() uint8 { return uint8(r.Intn(16)) }
	switch isa.FormatOf(op) {
	case isa.FmtR3:
		ins.Rd, ins.Rn, ins.Rm = reg(), reg(), reg()
	case isa.FmtR2:
		ins.Rd, ins.Rm = reg(), reg()
	case isa.FmtR4:
		ins.Rd, ins.Rn, ins.Rm, ins.Ra = reg(), reg(), reg(), reg()
	case isa.FmtRI, isa.FmtMEM:
		ins.Rd, ins.Rn = reg(), reg()
		ins.Imm = int64(r.Intn(4096) - 2048)
	case isa.FmtMOV:
		ins.Rd = reg()
		ins.Imm = int64(r.Intn(0x10000))
		if op == isa.OpMOVK {
			ins.Ra = 1
		}
	case isa.FmtCMP:
		ins.Rn, ins.Rm = reg(), reg()
	case isa.FmtCMPI:
		ins.Rn = reg()
		ins.Imm = int64(r.Intn(4096) - 2048)
	case isa.FmtB:
		ins.Imm = int64(r.Intn(1<<20) - 1<<19)
	case isa.FmtBR:
		ins.Rn = reg()
	case isa.FmtSYS:
		if op == isa.OpMRS {
			ins.Rd = reg()
		} else {
			ins.Rn = reg()
		}
		ins.Imm = int64(r.Intn(isa.NumSysregs))
	case isa.FmtSVC:
		ins.Imm = int64(r.Intn(0x10000))
	}
	return ins
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
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
	decodeWords(t, 11, func(w uint32) error {
		ins := codec.Decode(w)
		if ins.Op == isa.OpINVALID || ins.Cond > isa.CondAL {
			// cond=15 (reserved) decodes for execution but has no
			// canonical encoding.
			return nil
		}
		// Whatever decodes must re-encode to the same word (canonical
		// encoding property) unless it uses don't-care bits.
		w2, err := codec.Encode(ins)
		if err != nil {
			// Decoded-but-unencodable indicates field corruption such
			// as a movk with hw forced; only movk may do this.
			if ins.Op != isa.OpMOVK {
				return fmt.Errorf("decode(%#x)=%+v not re-encodable: %v", w, ins, err)
			}
			return nil
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

func TestV8OnlyOpsRejected(t *testing.T) {
	var codec ISA
	for _, op := range []isa.Op{
		isa.OpUMULH, isa.OpCSEL, isa.OpCSET, isa.OpCBZ, isa.OpCBNZ,
		isa.OpLDRW, isa.OpSTRW, isa.OpFADD, isa.OpFLDR, isa.OpSCVTF,
	} {
		if _, err := codec.Encode(isa.Instr{Op: op, Cond: isa.CondAL}); err == nil {
			t.Errorf("op %v should not encode on armv7", op)
		}
	}
}

func TestRegisterRangeChecked(t *testing.T) {
	var codec ISA
	_, err := codec.Encode(isa.Instr{Op: isa.OpADD, Cond: isa.CondAL, Rd: 16})
	if err == nil {
		t.Error("register 16 should be rejected on armv7")
	}
}

func TestImmediateRangeChecked(t *testing.T) {
	var codec ISA
	cases := []isa.Instr{
		{Op: isa.OpADDI, Cond: isa.CondAL, Imm: 2048},
		{Op: isa.OpADDI, Cond: isa.CondAL, Imm: -2049},
		{Op: isa.OpB, Cond: isa.CondAL, Imm: 1 << 19},
		{Op: isa.OpMOVZ, Cond: isa.CondAL, Imm: 0x10000},
	}
	for _, ins := range cases {
		if _, err := codec.Encode(ins); err == nil {
			t.Errorf("%v imm %d should be rejected", ins.Op, ins.Imm)
		}
	}
}

func TestFeatures(t *testing.T) {
	f := New().Feat()
	if f.WordBytes != 4 || f.NumGPR != 16 || !f.PCTarget || f.FaultTargets != 16 {
		t.Errorf("unexpected features: %+v", f)
	}
	if f.HasHWFloat || !f.HasPred {
		t.Errorf("armv7 must be soft-float and predicated: %+v", f)
	}
	if f.FaultTargets*8*f.WordBytes != 512 {
		t.Errorf("fault-target bits = %d, want 512", f.FaultTargets*8*f.WordBytes)
	}
}

func TestPredicationEncodes(t *testing.T) {
	var codec ISA
	ins := isa.Instr{Op: isa.OpADD, Cond: isa.CondNE, Rd: 1, Rn: 2, Rm: 3}
	w, err := codec.Encode(ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := codec.Decode(w); got.Cond != isa.CondNE {
		t.Errorf("predication lost: %+v", got)
	}
}
