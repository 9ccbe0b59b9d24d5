package mach

import (
	"fmt"
	"testing"

	"serfi/internal/isa"
	"serfi/internal/isa/armv8"
)

// matrixProg is a short loop ending in MOVZ r5,#imm / HALT; each capture in
// a series patches the immediate, so which capture a restore brings back is
// observable in r5 after running to halt.
func matrixProg(imm int64) []isa.Instr {
	return []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 20}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -1}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: imm}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
}

// TestRestoreMatrix extends TestRestoreDropsBlockRuns across page sharing:
// series of 1, 2 and 8 captures after the first, each sharing every page not
// written since its predecessor, restored in a deliberately jumpy order (both
// directions along the series) into the same live machine (which shares most
// pages already) and into bare machines (which share none). Every capture
// must reproduce its own patched text — a stale decode or block run would
// surface as the wrong r5.
func TestRestoreMatrix(t *testing.T) {
	const patchAddr = kernBase + 3*4
	for _, depth := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := testConfig(armv8.New(), 1)
			m := newTestMachine(t, cfg, matrixProg(100), nil)
			snaps := []*Snapshot{m.Snapshot()}
			want := []uint64{100}
			for k := 1; k <= depth; k++ {
				w, err := cfg.ISA.Encode(al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: int64(100 + k)}))
				if err != nil {
					t.Fatal(err)
				}
				m.Mem.WriteU32(patchAddr, w)
				m.InvalidateText(patchAddr, 4)
				// Touch a data page too, so captures differ in both kinds.
				m.Mem.WriteU64(dataBase+uint32(k)*8, uint64(k)*0x1111)
				snaps = append(snaps, m.Snapshot())
				want = append(want, uint64(100+k))
			}
			// Jump around the series: down to the first, back up, into the
			// middle. Each restore must re-decode exactly the right text.
			order := []int{depth, 0, depth, depth / 2, depth - 1, 0, depth}
			for step, idx := range order {
				m.Restore(snaps[idx])
				if !snaps[idx].StateEquals(m) {
					t.Fatalf("step %d: StateEquals false right after restoring snaps[%d]", step, idx)
				}
				if r := m.Run(0); r != StopHalted {
					t.Fatalf("step %d: stop = %v", step, r)
				}
				if got := m.Cores[0].Regs[5]; got != want[idx] {
					t.Errorf("step %d: snaps[%d] ran r5 = %d, want %d (stale decode)", step, idx, got, want[idx])
				}
			}

			// Bare machines share no page with any snapshot: the restore
			// repoints every page the snapshot lists and must agree.
			for idx := 0; idx <= depth; idx++ {
				f := New(cfg)
				f.Restore(snaps[idx])
				if r := f.Run(0); r != StopHalted {
					t.Fatalf("fresh snaps[%d]: stop = %v", idx, r)
				}
				if got := f.Cores[0].Regs[5]; got != want[idx] {
					t.Errorf("fresh snaps[%d]: r5 = %d, want %d", idx, got, want[idx])
				}
			}
		})
	}
}

// TestSelectiveRestoreInvalidationExactness pins the cache-invalidation
// contract of restore: decoded text and block runs are dropped when — and
// only when — a repointed page overlaps cached text.
func TestSelectiveRestoreInvalidationExactness(t *testing.T) {
	const patchAddr = kernBase + 3*4
	cfg := testConfig(armv8.New(), 1)
	m := newTestMachine(t, cfg, matrixProg(7), nil)
	root := m.Snapshot()
	m.Mem.WriteU64(dataBase, 0x1234)
	dataOnly := m.Snapshot() // differs from root on the data page only
	w, err := cfg.ISA.Encode(al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 9}))
	if err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteU32(patchAddr, w)
	m.InvalidateText(patchAddr, 4)
	_ = m.Snapshot() // differs from dataOnly on the kernel-text page only

	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.Cores[0].Regs[5]; got != 9 {
		t.Fatalf("r5 = %d, want the patched 9", got)
	}
	idx := patchAddr >> 2
	if !m.decValid[idx] {
		t.Fatal("patched word not decoded after running it")
	}

	// Back to dataOnly repoints the text page: the decode must drop.
	m.Restore(dataOnly)
	if m.decValid[idx] {
		t.Error("a restore that repointed the text page left a stale decode")
	}
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.Cores[0].Regs[5]; got != 7 {
		t.Fatalf("r5 = %d, want the original 7", got)
	}
	if !m.decValid[idx] {
		t.Fatal("loop text not decoded after re-run")
	}
	loopIdx := (kernBase + 4) >> 2
	hadBlock := m.blockOf[loopIdx] >= 0

	// dataOnly -> root touches only the data page: warm decode and block
	// runs over untouched text must survive the restore.
	m.Restore(root)
	if !m.decValid[idx] {
		t.Error("data-page-only restore flushed the decode cache")
	}
	if hadBlock && m.blockOf[loopIdx] < 0 {
		t.Error("data-page-only restore dropped a block run over untouched text")
	}
	if r := m.Run(0); r != StopHalted {
		t.Fatalf("stop = %v", r)
	}
	if got := m.Cores[0].Regs[5]; got != 7 {
		t.Errorf("r5 = %d after root restore, want 7", got)
	}
}
