package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// The fuzz harness drives a Memory and a naive full-copy oracle (a flat
// byte slice mutated in lockstep) through random write/snapshot/restore/
// compare sequences, including deltas chained from a foreign memory
// (DeltaOf), chains rebuilt around a subset of their members (Squash) and
// write-log use of the dirty bitmap (TakeDirtyPages). Any
// divergence between the sparse delta-chain machinery and the oracle is a
// bug in the copy-on-write engine.

// oracleSnap pairs a real snapshot with the oracle's full RAM copy taken
// at the same instant.
type oracleSnap struct {
	snap *Snapshot
	ram  []byte
}

// fuzzSizes mixes odd sizes, exact page multiples, and off-by-one page
// boundaries so short final pages and straddling writes are exercised.
var fuzzSizes = []uint32{
	37,
	PageBytes - 1,
	PageBytes,
	PageBytes + 1,
	2*PageBytes + 17,
	5 * PageBytes,
	8*PageBytes + 4093,
}

const (
	maxScriptOps  = 256
	maxScriptSnap = 16
)

// runSnapshotScript interprets a byte-coded op script against both the
// Memory under test and the oracle, failing on any divergence, and returns
// the snapshots captured along the way.
func runSnapshotScript(t *testing.T, size uint32, script []byte) (*Memory, []oracleSnap) {
	t.Helper()
	m := New(size)
	oracle := make([]byte, size)
	var snaps []oracleSnap

	rd := bytes.NewReader(script)
	u8 := func() uint8 { b, _ := rd.ReadByte(); return b }
	u32 := func() uint32 {
		var raw [4]byte
		rd.Read(raw[:])
		return binary.LittleEndian.Uint32(raw[:])
	}

	for op := 0; rd.Len() > 0 && op < maxScriptOps; op++ {
		switch u8() % 12 {
		case 0: // bulk write, possibly straddling pages or clamped at the end
			addr := u32() % size
			n := u32()%(3*PageBytes) + 1
			pat := u8()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = pat + byte(i)
			}
			m.WriteBytes(addr, buf)
			copy(oracle[addr:], buf)
		case 1: // zero-fill, the path that creates zero markers in deltas
			addr := u32() % size
			n := u32()%(2*PageBytes) + 1
			m.WriteBytes(addr, make([]byte, n))
			end := uint64(addr) + uint64(n)
			if end > uint64(size) {
				end = uint64(size)
			}
			clear(oracle[addr:end])
		case 2:
			addr := u32() % size
			v := u8()
			m.WriteU8(addr, v)
			oracle[addr] = v
		case 3:
			if size < 4 {
				continue
			}
			addr := u32() % (size - 3)
			v := u32()
			m.WriteU32(addr, v)
			binary.LittleEndian.PutUint32(oracle[addr:], v)
		case 4:
			if size < 8 {
				continue
			}
			addr := u32() % (size - 7)
			v := uint64(u32())<<32 | uint64(u32())
			m.WriteU64(addr, v)
			binary.LittleEndian.PutUint64(oracle[addr:], v)
		case 5: // full snapshot
			if len(snaps) >= maxScriptSnap {
				continue
			}
			s := m.Snapshot()
			snaps = append(snaps, oracleSnap{s, append([]byte(nil), oracle...)})
			if !s.EqualsMemory(m) {
				t.Fatalf("op %d: full snapshot does not equal its own source", op)
			}
		case 6: // delta snapshot
			if len(snaps) >= maxScriptSnap {
				continue
			}
			s := m.DeltaSnapshot()
			snaps = append(snaps, oracleSnap{s, append([]byte(nil), oracle...)})
			if !s.EqualsMemory(m) {
				t.Fatalf("op %d: delta snapshot does not equal its own source", op)
			}
		case 7: // restore an arbitrary earlier snapshot
			if len(snaps) == 0 {
				continue
			}
			pick := snaps[u32()%uint32(len(snaps))]
			m.Restore(pick.snap)
			if !bytes.Equal(m.ram, pick.ram) {
				t.Fatalf("op %d: restore diverged from oracle", op)
			}
			copy(oracle, pick.ram)
		case 8: // EqualsMemory against live state must agree with the oracle
			if len(snaps) == 0 {
				continue
			}
			pick := snaps[u32()%uint32(len(snaps))]
			want := bytes.Equal(oracle, pick.ram)
			if got := pick.snap.EqualsMemory(m); got != want {
				t.Fatalf("op %d: EqualsMemory = %v, oracle says %v", op, got, want)
			}
			// The same bytes in a memory with no tracking base force the
			// compare-every-page path; it must agree with the selective one.
			if got := pick.snap.EqualsMemory(untracked(oracle)); got != want {
				t.Fatalf("op %d: full-path EqualsMemory = %v, oracle says %v", op, got, want)
			}
		case 9: // chain ANOTHER memory's contents onto an earlier snapshot
			// (how the golden terminal image joins a checkpoint chain): the
			// source is the live image plus a pattern write and a zeroed
			// range, held in a memory that shares no tracking with the chain.
			if len(snaps) == 0 || len(snaps) >= maxScriptSnap {
				continue
			}
			pick := snaps[u32()%uint32(len(snaps))]
			src := untracked(oracle)
			src.WriteBytes(u32()%size, bytes.Repeat([]byte{u8() | 1}, int(u32()%PageBytes)+1))
			src.WriteBytes(u32()%size, make([]byte, u32()%(2*PageBytes)+1))
			d := pick.snap.DeltaOf(src)
			if d.Parent() != pick.snap || d.Depth() != pick.snap.Depth()+1 {
				t.Fatalf("op %d: DeltaOf not chained onto its receiver", op)
			}
			if !d.EqualsMemory(src) {
				t.Fatalf("op %d: DeltaOf does not equal its source", op)
			}
			// Selective compare of the live memory against the new tip.
			if got, want := d.EqualsMemory(m), bytes.Equal(oracle, src.ram); got != want {
				t.Fatalf("op %d: EqualsMemory(chained delta) = %v, oracle says %v", op, got, want)
			}
			snaps = append(snaps, oracleSnap{d, append([]byte(nil), src.ram...)})
		case 10: // use the bitmap as a write log: tracking must switch off
			m.TakeDirtyPages()
			if m.Base() != nil {
				t.Fatalf("op %d: TakeDirtyPages left a tracking base behind", op)
			}
		case 11: // rebuild a chain around a subset of its members
			// (how the golden run thins its checkpoint candidates and a
			// checkpoint set drops the ones it did not select): the mask
			// picks which ancestors of a snapshot survive, the snapshot
			// itself always does, the root only if its bit is set.
			if len(snaps) == 0 {
				continue
			}
			pick, mask := snaps[u32()%uint32(len(snaps))], u32()
			var keep []oracleSnap
			for c := pick.snap; c != nil; c = c.parent {
				if c == pick.snap || mask&(1<<(c.depth%32)) != 0 {
					keep = append(keep, oracleOf(t, snaps, c))
				}
			}
			slices.Reverse(keep)
			in := make([]*Snapshot, len(keep))
			for i, k := range keep {
				in[i] = k.snap
			}
			out := Squash(in)
			for i, s := range out {
				var parent *Snapshot
				depth := 0
				if i > 0 {
					parent, depth = out[i-1], out[i-1].depth+1
				}
				if s.parent != parent || s.depth != depth {
					t.Fatalf("op %d: squashed snapshot %d is not chained onto its predecessor", op, i)
				}
				fresh := New(size)
				fresh.Restore(s)
				if !bytes.Equal(fresh.ram, keep[i].ram) {
					t.Fatalf("op %d: squashed snapshot %d materializes unlike the member it stands for", op, i)
				}
				if got, want := s.EqualsMemory(m), bytes.Equal(oracle, keep[i].ram); got != want {
					t.Fatalf("op %d: EqualsMemory(squashed %d) = %v, oracle says %v", op, i, got, want)
				}
				// What Squash built joins the pool: later restores move the
				// live memory along the new chain selectively, compares run
				// against it, and verifySnapshots walks its pages (a zero
				// marker must survive exactly over a page the kept
				// predecessor holds). The input chain stays in the pool too,
				// and must still verify untouched.
				if s != in[i] && len(snaps) < 2*maxScriptSnap {
					squashed++
					snaps = append(snaps, oracleSnap{s, keep[i].ram})
				}
			}
		}
	}
	return m, snaps
}

// squashed counts the snapshots Squash built (not reused) across all scripts
// of the test binary: the proof that a script reached the op with a chain
// worth squashing.
var squashed int

// oracleOf finds the oracle copy recorded for snapshot s.
func oracleOf(t *testing.T, snaps []oracleSnap, s *Snapshot) oracleSnap {
	t.Helper()
	for _, p := range snaps {
		if p.snap == s {
			return p
		}
	}
	t.Fatal("snapshot on a chain was never recorded")
	return oracleSnap{}
}

// untracked returns a memory holding a copy of ram with no tracking base, so
// every compare against it and restore into it takes the full path.
func untracked(ram []byte) *Memory {
	m := New(uint32(len(ram)))
	copy(m.ram, ram)
	return m
}

// verifySnapshots restores every captured snapshot into both a fresh
// memory (no shared chain: the slow full-materialization path) and the
// live memory (shared chain: the selective fast path) and checks each
// against the oracle copy. It then walks every page of every snapshot
// through pageData — the one chain read under patch, pageEquals and
// selective Restore, which hands out the chain's own page — and holds it to
// the oracle too: nil exactly where the oracle page is all-zero, after the
// script and the restores have had every chance to write through one.
func verifySnapshots(t *testing.T, m *Memory, size uint32, snaps []oracleSnap) {
	t.Helper()
	for i, pair := range snaps {
		fresh := New(size)
		fresh.Restore(pair.snap)
		if !bytes.Equal(fresh.ram, pair.ram) {
			t.Fatalf("snapshot %d: slow-path restore diverged from oracle", i)
		}
		m.Restore(pair.snap)
		if !bytes.Equal(m.ram, pair.ram) {
			t.Fatalf("snapshot %d: fast-path restore diverged from oracle", i)
		}
		if !pair.snap.EqualsMemory(m) {
			t.Fatalf("snapshot %d: EqualsMemory false right after restore", i)
		}
	}
	for i, pair := range snaps {
		for off := uint32(0); off < size; off = pageEnd(off, size) {
			want := pair.ram[off:pageEnd(off, size)]
			got := pair.snap.pageData(off)
			if (got == nil) != isZero(want) || got != nil && !bytes.Equal(got, want) {
				t.Fatalf("snapshot %d (depth %d) page %#x: pageData diverged from oracle", i, pair.snap.Depth(), off)
			}
		}
	}
}

func runSnapshotOracle(t *testing.T, sizeSel uint8, script []byte) {
	size := fuzzSizes[int(sizeSel)%len(fuzzSizes)]
	m, snaps := runSnapshotScript(t, size, script)
	verifySnapshots(t, m, size, snaps)
}

// squashSeed is a script that reaches the squash op with a chain worth
// squashing: a full capture and three deltas (a pattern write, a zero-fill
// over it — a zero marker — and the pattern again), squashed around the tip
// alone and then around root and tip; then the live memory walks the pool
// and compares against it.
func squashSeed() []byte {
	le := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	var b []byte
	add := func(parts ...[]byte) {
		for _, p := range parts {
			b = append(b, p...)
		}
	}
	write := func(addr, n uint32, pat byte) { add([]byte{0}, le(addr), le(n-1), []byte{pat}) }
	write(100, 3*PageBytes, 7)
	add([]byte{5})
	write(PageBytes+5, PageBytes, 9)
	add([]byte{6})
	add([]byte{1}, le(0), le(2*PageBytes-1)) // zero-fill pages 0 and 1
	add([]byte{6})
	write(40, 2*PageBytes, 3)
	add([]byte{6})
	add([]byte{11}, le(3), le(0)) // around the tip alone: a full image
	add([]byte{11}, le(3), le(1)) // around root and tip: three deltas in one
	add([]byte{11}, le(2), le(1)) // around root and the zero-fill: markers over the root's data
	for i := uint32(0); i < 7; i++ {
		add([]byte{7}, le(i), []byte{8}, le(6-i))
	}
	return b
}

func FuzzSnapshotDeltaOracle(f *testing.F) {
	f.Add(uint8(5), squashSeed())
	for sel := range fuzzSizes {
		rng := rand.New(rand.NewSource(int64(sel) + 7))
		seed := make([]byte, 512)
		rng.Read(seed)
		f.Add(uint8(sel), seed)
	}
	f.Fuzz(runSnapshotOracle)
}

// TestSnapshotOracleScripts replays deterministic pseudo-random scripts
// over every fuzz size under plain `go test`, so the oracle equivalence
// suite runs even where the fuzz engine does not.
func TestSnapshotOracleScripts(t *testing.T) {
	squashed = 0
	runSnapshotOracle(t, 5, squashSeed())
	if squashed != 3 {
		t.Errorf("the squash seed built %d snapshots, want one per squash op", squashed)
	}
	for sel := range fuzzSizes {
		for round := 0; round < 4; round++ {
			rng := rand.New(rand.NewSource(int64(sel*100 + round)))
			script := make([]byte, 2048)
			rng.Read(script)
			runSnapshotOracle(t, uint8(sel), script)
		}
	}
}
