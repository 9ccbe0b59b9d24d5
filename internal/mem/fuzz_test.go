package mem

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The fuzz harness drives a Memory and a naive full-copy oracle (a flat
// byte slice mutated in lockstep) through random write/read/snapshot/
// restore/compare sequences and write-log use of the dirty set
// (TakeDirtyPages). After every op it holds every snapshot taken so far to
// the bytes it captured, the shared zero page to zeros, and the memory's
// private pages (owned, and the free list) to pages no snapshot holds. Any
// divergence is a bug in the copy-on-write engine: a page written in place
// while a snapshot shares it, or recycled while one still does.

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
	written := make(map[uint32]bool) // pages written since the last capture, restore or TakeDirtyPages
	var snaps []oracleSnap

	rd := bytes.NewReader(script)
	u8 := func() uint8 { b, _ := rd.ReadByte(); return b }
	u32 := func() uint32 {
		var raw [4]byte
		rd.Read(raw[:])
		return binary.LittleEndian.Uint32(raw[:])
	}
	wrote := func(addr uint32, n uint64) {
		for off := uint64(addr) &^ pageMask; off < min(uint64(addr)+n, uint64(size)); off += PageBytes {
			written[uint32(off)] = true
		}
	}

	for op := 0; rd.Len() > 0 && op < maxScriptOps; op++ {
		free := len(m.free)
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
			wrote(addr, uint64(n))
		case 1: // zero-fill: a private page of zeros, not the zero page
			addr := u32() % size
			n := u32()%(2*PageBytes) + 1
			m.WriteBytes(addr, make([]byte, n))
			clear(oracle[addr:min(uint64(addr)+uint64(n), uint64(size))])
			wrote(addr, uint64(n))
		case 2:
			addr := u32() % size
			v := u8()
			m.WriteU8(addr, v)
			oracle[addr] = v
			wrote(addr, 1)
		case 3:
			if size < 4 {
				continue
			}
			addr := u32() % (size - 3)
			v := u32()
			countStraddle(addr, 4)
			m.WriteU32(addr, v)
			binary.LittleEndian.PutUint32(oracle[addr:], v)
			wrote(addr, 4)
		case 4:
			if size < 8 {
				continue
			}
			addr := u32() % (size - 7)
			v := uint64(u32())<<32 | uint64(u32())
			countStraddle(addr, 8)
			m.WriteU64(addr, v)
			binary.LittleEndian.PutUint64(oracle[addr:], v)
			wrote(addr, 8)
		case 5: // capture: every page the memory holds, shared
			if len(snaps) >= maxScriptSnap {
				continue
			}
			s := m.Snapshot()
			snaps = append(snaps, oracleSnap{s, append([]byte(nil), oracle...)})
			if !sharesEveryPage(s, m) {
				t.Fatalf("op %d: a capture does not share the memory's pages", op)
			}
			if !s.EqualsMemory(m) {
				t.Fatalf("op %d: snapshot does not equal its own source", op)
			}
			clear(written)
		case 6: // restore an arbitrary earlier snapshot
			if len(snaps) == 0 {
				continue
			}
			pick := snaps[u32()%uint32(len(snaps))]
			m.Restore(pick.snap)
			if !bytes.Equal(image(m), pick.ram) {
				t.Fatalf("op %d: restore diverged from oracle", op)
			}
			if !sharesEveryPage(pick.snap, m) {
				t.Fatalf("op %d: a restore left a page the snapshot does not share", op)
			}
			copy(oracle, pick.ram)
			clear(written)
		case 7: // EqualsMemory against live state must agree with the oracle
			if len(snaps) == 0 {
				continue
			}
			pick := snaps[u32()%uint32(len(snaps))]
			want := bytes.Equal(oracle, pick.ram)
			if got := pick.snap.EqualsMemory(m); got != want {
				t.Fatalf("op %d: EqualsMemory = %v, oracle says %v", op, got, want)
			}
			// The same bytes in a memory that shares no page with the
			// snapshot: every page it holds is compared.
			if got := pick.snap.EqualsMemory(copyOf(oracle)); got != want {
				t.Fatalf("op %d: EqualsMemory of an unshared copy = %v, oracle says %v", op, got, want)
			}
		case 8: // use the dirty set as a write log
			var want []uint32
			for off := uint32(0); off < size; off = pageEnd(off, size) {
				if written[off] {
					want = append(want, off)
				}
			}
			if got := m.TakeDirtyPages(); !equalOffsets(got, want) {
				t.Fatalf("op %d: TakeDirtyPages = %#x, the oracle wrote %#x", op, got, want)
			}
			clear(written)
		case 9: // reads, of pages written or never written, must see the oracle
			addr := u32() % size
			if got := m.ReadU8(addr); got != oracle[addr] {
				t.Fatalf("op %d: ReadU8(%#x) = %#x, oracle says %#x", op, addr, got, oracle[addr])
			}
		case 10:
			if size < 4 {
				continue
			}
			addr := u32() % (size - 3)
			countStraddle(addr, 4)
			if got, want := m.ReadU32(addr), binary.LittleEndian.Uint32(oracle[addr:]); got != want {
				t.Fatalf("op %d: ReadU32(%#x) = %#x, oracle says %#x", op, addr, got, want)
			}
		case 11:
			if size < 8 {
				continue
			}
			addr := u32() % (size - 7)
			countStraddle(addr, 8)
			if got, want := m.ReadU64(addr), binary.LittleEndian.Uint64(oracle[addr:]); got != want {
				t.Fatalf("op %d: ReadU64(%#x) = %#x, oracle says %#x", op, addr, got, want)
			}
		}
		if len(m.free) < free {
			recycled++
		}
		checkSharing(t, op, m, snaps)
	}
	return m, snaps
}

// checkSharing holds, after one op, every snapshot to the bytes it captured
// and the zero page to zeros, and checks that no page the memory may write
// in place (owned, or on the free list) is one a snapshot holds.
func checkSharing(t *testing.T, op int, m *Memory, snaps []oracleSnap) {
	t.Helper()
	for i, pair := range snaps {
		if !readsBack(pair.snap, pair.ram) {
			t.Fatalf("op %d: snapshot %d no longer reads back the bytes it captured", op, i)
		}
	}
	held := func(p []byte) bool {
		for _, pair := range snaps {
			for _, q := range pair.snap.pages {
				if &q.data[0] == &p[0] {
					return true
				}
			}
		}
		return false
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageBytes)) {
		t.Fatalf("op %d: the shared zero page was written", op)
	}
	for pn, p := range m.pages {
		if m.dirty.has(uint32(pn)) && !m.owned.has(uint32(pn)) {
			t.Fatalf("op %d: page %d is dirty but not owned", op, pn)
		}
		if m.owned.has(uint32(pn)) && (&p[0] == &zeroPage[0] || held(p)) {
			t.Fatalf("op %d: page %d is owned but shared", op, pn)
		}
	}
	for _, p := range m.free {
		if held(p) {
			t.Fatalf("op %d: a page on the free list is held by a snapshot", op)
		}
	}
}

// sharesEveryPage reports whether every page of m is the snapshot's own
// slice, or the zero page where the snapshot lists none.
func sharesEveryPage(s *Snapshot, m *Memory) bool {
	i := 0
	for pn, p := range m.pages {
		want := &zeroPage[0]
		if i < len(s.pages) && s.pages[i].pn == uint32(pn) {
			want = &s.pages[i].data[0]
			i++
		}
		if &p[0] != want {
			return false
		}
	}
	return i == len(s.pages)
}

// readsBack reports whether the snapshot's page list holds ram's bytes,
// reading each page straight from the list (zero where it lists none).
func readsBack(s *Snapshot, ram []byte) bool {
	i := 0
	for off := uint32(0); off < s.size; off = pageEnd(off, s.size) {
		want := ram[off:pageEnd(off, s.size)]
		got := zeroPage[:len(want)]
		if i < len(s.pages) && s.pages[i].pn == off>>pageShift {
			got = s.pages[i].data
			i++
		}
		if !bytes.Equal(got, want) {
			return false
		}
	}
	return i == len(s.pages)
}

func equalOffsets(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// straddled counts the 4- and 8-byte accesses that crossed a page boundary
// across all scripts of the test binary: the proof that the straddle seeds
// reach the byte-wise path.
var straddled int

func countStraddle(addr, n uint32) {
	if addr>>pageShift != (addr+n-1)>>pageShift {
		straddled++
	}
}

// recycled counts the ops, across all scripts of the test binary, in which
// writable took a page off the free list: the proof that the share seed
// reaches the recycling path.
var recycled int

// image reads a memory's whole contents through the public accessors.
func image(m *Memory) []byte { return m.ReadBytes(0, m.Size()) }

// copyOf returns a memory holding a copy of ram that shares no page with
// any snapshot.
func copyOf(ram []byte) *Memory {
	m := New(uint32(len(ram)))
	m.WriteBytes(0, ram)
	return m
}

// verifySnapshots restores every captured snapshot into both a fresh memory
// and the live memory and checks each against the oracle copy.
func verifySnapshots(t *testing.T, m *Memory, size uint32, snaps []oracleSnap) {
	t.Helper()
	for i, pair := range snaps {
		fresh := New(size)
		fresh.Restore(pair.snap)
		if !bytes.Equal(image(fresh), pair.ram) {
			t.Fatalf("snapshot %d: restore into a fresh memory diverged from oracle", i)
		}
		m.Restore(pair.snap)
		if !bytes.Equal(image(m), pair.ram) {
			t.Fatalf("snapshot %d: restore into the live memory diverged from oracle", i)
		}
		if !pair.snap.EqualsMemory(m) {
			t.Fatalf("snapshot %d: EqualsMemory false right after restore", i)
		}
	}
}

func runSnapshotOracle(t *testing.T, sizeSel uint8, script []byte) {
	size := fuzzSizes[int(sizeSel)%len(fuzzSizes)]
	m, snaps := runSnapshotScript(t, size, script)
	verifySnapshots(t, m, size, snaps)
}

// shareSeed is a script that reaches every sharing case: pages written,
// captured and written again (copied on the first write), an older capture
// restored over written pages (the copies go on the free list) and written
// again (writable recycles them), a newer capture restored, the write log
// drained between writes to owned pages, and a compare after each step.
func shareSeed() []byte {
	le := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	var b []byte
	add := func(op byte, args ...uint32) {
		b = append(b, op)
		for _, a := range args {
			b = append(b, le(a)...)
		}
	}
	write := func(addr, n uint32, pat byte) { add(0, addr, n-1); b = append(b, pat) }
	write(100, 3*PageBytes, 7)
	add(5) // snapshot 0
	write(PageBytes+5, PageBytes, 9)
	add(3, 4*PageBytes+8, 0xabcd)
	add(5)                        // snapshot 1
	add(1, 0, 2*PageBytes-1)      // zero-fill pages 0 and 1
	add(6, 0)                     // back to snapshot 0: the copies go free
	add(7, 1)                     // differs from snapshot 1
	write(40, 2*PageBytes, 3)     // recycled pages
	add(8)                        // drain the write log
	add(4, PageBytes-4, 1, 2)     // an owned page, a logged write again
	add(8)                        // ... which the log records
	add(6, 1)                     // forward to snapshot 1
	add(7, 1)                     // equal to it
	add(3, 4*PageBytes+8, 0xabcd) // same value, still a copy
	add(7, 1)
	add(5) // snapshot 2
	for i := uint32(0); i < 3; i++ {
		add(6, i)
		add(7, 2-i)
	}
	return b
}

// straddleSeed is a script of 4- and 8-byte writes and reads that straddle
// page boundaries, reads of pages no write has reached, and the last
// in-range words of RAM, around two captures and restores of both.
func straddleSeed(size uint32) []byte {
	le := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	var b []byte
	add := func(op byte, args ...uint32) {
		b = append(b, op)
		for _, a := range args {
			b = append(b, le(a)...)
		}
	}
	reads := func() {
		add(10, PageBytes-2)    // the written straddle
		add(11, 2*PageBytes-3)  // the written straddle
		add(11, 3*PageBytes-4)  // pages 2 and 3: never written
		add(10, 4*PageBytes-1)  // never written
		add(9, 4*PageBytes+100) // never written
		add(10, size-4)         // the last words of RAM
		add(11, size-8)
	}
	reads()
	add(3, PageBytes-2, 0xa1b2c3d4)
	add(4, 2*PageBytes-3, 0x01020304, 0x05060708)
	add(4, size-8, 0x11223344, 0x55667788)
	reads()
	add(5) // snapshot 0
	add(3, PageBytes-1, 0xdeadbeef)
	add(4, 3*PageBytes-4, 0, 0) // zeros over a never-written straddle
	reads()
	add(5) // snapshot 1
	add(6, 0)
	reads()
	add(6, 1)
	reads()
	return b
}

func FuzzSnapshotDeltaOracle(f *testing.F) {
	f.Add(uint8(5), shareSeed())
	f.Add(uint8(5), straddleSeed(5*PageBytes))
	f.Add(uint8(6), straddleSeed(8*PageBytes+4093))
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
	recycled = 0
	runSnapshotOracle(t, 5, shareSeed())
	if recycled == 0 {
		t.Error("the share seed never wrote into a page off the free list")
	}
	straddled = 0
	runSnapshotOracle(t, 6, straddleSeed(8*PageBytes+4093))
	if straddled != 24 {
		t.Errorf("the straddle seed made %d page-straddling accesses, want 24", straddled)
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
