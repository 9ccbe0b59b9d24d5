package mach

import (
	"fmt"
	"testing"

	"serfi/internal/isa"
	"serfi/internal/isa/armv8"
)

// matrixProg is a short loop ending in MOVZ r5,#imm / HALT; each delta in a
// chain patches the immediate, so which chain element a restore materializes
// is observable in r5 after running to halt.
func matrixProg(imm int64) []isa.Instr {
	return []isa.Instr{
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 0, Imm: 20}),
		al(isa.Instr{Op: isa.OpSUBI, Rd: 0, Rn: 0, Imm: 1}),
		al(isa.Instr{Op: isa.OpCBNZ, Rn: 0, Imm: -1}),
		al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: imm}),
		al(isa.Instr{Op: isa.OpHALT}),
	}
}

// TestRestoreMatrix extends TestRestoreDropsBlockRuns across the delta-chain
// engine: chains of depth 1, 2 and 8, restored in a deliberately jumpy order
// (both directions along the chain) into the same live machine (selective
// fast path) and into bare machines (full materialization). Every element of every chain must reproduce its own
// patched text — a stale decode or block run would surface as the wrong r5.
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
				// Touch a data page too, so deltas carry both kinds.
				m.Mem.WriteU64(dataBase+uint32(k)*8, uint64(k)*0x1111)
				snaps = append(snaps, m.DeltaSnapshot())
				want = append(want, uint64(100+k))
			}
			if got := snaps[depth].mem.Depth(); got != depth {
				t.Fatalf("chain depth = %d, want %d", got, depth)
			}
			// Jump around the chain: down to the root, back up, into the
			// middle. Each restore must re-decode exactly the right text.
			order := []int{depth, 0, depth, depth / 2, depth - 1, 0, depth}
			for step, idx := range order {
				m.Restore(snaps[idx])
				if !snaps[idx].StateEquals(m) {
					t.Fatalf("step %d: StateEquals false right after restoring chain[%d]", step, idx)
				}
				if r := m.Run(0); r != StopHalted {
					t.Fatalf("step %d: stop = %v", step, r)
				}
				if got := m.Cores[0].Regs[5]; got != want[idx] {
					t.Errorf("step %d: chain[%d] ran r5 = %d, want %d (stale decode)", step, idx, got, want[idx])
				}
			}

			// Bare machines share no chain with any snapshot: the restore
			// takes the full-materialization path and must agree.
			for idx := 0; idx <= depth; idx++ {
				f := New(cfg)
				f.Restore(snaps[idx])
				if r := f.Run(0); r != StopHalted {
					t.Fatalf("fresh chain[%d]: stop = %v", idx, r)
				}
				if got := f.Cores[0].Regs[5]; got != want[idx] {
					t.Errorf("fresh chain[%d]: r5 = %d, want %d", idx, got, want[idx])
				}
			}

			// The chain squashed around every other element and the tip
			// (at odd depth the root goes too): each survivor is still its
			// own patched text, restored into the live machine — which sits
			// on the old chain first, on the new one after — and a bare one.
			var keep []int
			for idx := depth % 2; idx <= depth; idx += 2 {
				keep = append(keep, idx)
			}
			var in []*Snapshot
			for _, idx := range keep {
				in = append(in, snaps[idx])
			}
			for i, s := range Squash(in) {
				if s.Retired() != in[i].Retired() || s.mem.Depth() != i {
					t.Fatalf("squashed[%d]: retired %d depth %d", i, s.Retired(), s.mem.Depth())
				}
				for _, mm := range []*Machine{m, New(cfg)} {
					mm.Restore(s)
					if !in[i].StateEqualsExact(mm) {
						t.Fatalf("squashed[%d] restores unlike chain[%d]", i, keep[i])
					}
					if r := mm.Run(0); r != StopHalted {
						t.Fatalf("squashed[%d]: stop = %v", i, r)
					}
					if got := mm.Cores[0].Regs[5]; got != want[keep[i]] {
						t.Errorf("squashed[%d]: r5 = %d, want %d", i, got, want[keep[i]])
					}
				}
			}
		})
	}
}

// TestSelectiveRestoreInvalidationExactness pins the cache-invalidation
// contract of the selective restore path: decoded text and block runs are
// dropped when — and only when — a rewritten page overlaps cached text.
func TestSelectiveRestoreInvalidationExactness(t *testing.T) {
	const patchAddr = kernBase + 3*4
	cfg := testConfig(armv8.New(), 1)
	m := newTestMachine(t, cfg, matrixProg(7), nil)
	root := m.Snapshot()
	m.Mem.WriteU64(dataBase, 0x1234)
	dataOnly := m.DeltaSnapshot() // delta: the data page only
	w, err := cfg.ISA.Encode(al(isa.Instr{Op: isa.OpMOVZ, Rd: 5, Imm: 9}))
	if err != nil {
		t.Fatal(err)
	}
	m.Mem.WriteU32(patchAddr, w)
	m.InvalidateText(patchAddr, 4)
	_ = m.DeltaSnapshot() // textDelta: the kernel-text page only, now the tracking base

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

	// textDelta -> dataOnly crosses the text page: the decode must drop.
	m.Restore(dataOnly)
	if m.decValid[idx] {
		t.Error("restore across a text-page delta left a stale decode")
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
