package mem

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testMem() *Memory {
	m := New(1 << 20)
	m.Map(Region{Name: "kern", Start: 0x0, End: 0x1000, Perm: PermR | PermW | PermX})
	m.Map(Region{Name: "utext", Start: 0x1000, End: 0x2000, Perm: PermR | PermX | PermUser})
	m.Map(Region{Name: "udata", Start: 0x2000, End: 0x4000, Perm: PermR | PermW | PermUser})
	return m
}

func TestCheckPermissions(t *testing.T) {
	m := testMem()
	cases := []struct {
		addr uint32
		want Perm
		user bool
		ok   bool
	}{
		{0x0, PermR, false, true},
		{0x0, PermW, false, true},
		{0x0, PermR, true, false},    // kernel region from user
		{0x1000, PermX, true, true},  // user text exec
		{0x1000, PermW, true, false}, // user text not writable
		{0x1000, PermW, false, false},
		{0x2000, PermW, true, true},
		{0x2000, PermX, true, false},   // data not executable
		{0x4000, PermR, false, false},  // unmapped hole
		{0x3ffd, PermR, true, false},   // straddles region end (4-byte access)
		{0xfffff, PermR, false, false}, // unmapped tail
	}
	for _, c := range cases {
		err := m.Check(c.addr, 4, c.want, c.user)
		if (err == nil) != c.ok {
			t.Errorf("Check(%#x, %v, user=%v) = %v, want ok=%v", c.addr, c.want, c.user, err, c.ok)
		}
	}
}

func TestCheckWrapAround(t *testing.T) {
	m := testMem()
	if m.Check(0xfffffffe, 4, PermR, false) == nil {
		t.Error("wrapping access must fault")
	}
}

func TestOverlapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overlapping Map should panic")
		}
	}()
	m := testMem()
	m.Map(Region{Name: "bad", Start: 0x800, End: 0x1800, Perm: PermR})
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := testMem()
	m.WriteU32(0x2000, 0xdeadbeef)
	if got := m.ReadU32(0x2000); got != 0xdeadbeef {
		t.Errorf("u32 = %#x", got)
	}
	m.WriteU64(0x2008, 0x0123456789abcdef)
	if got := m.ReadU64(0x2008); got != 0x0123456789abcdef {
		t.Errorf("u64 = %#x", got)
	}
	if got := m.ReadU8(0x2008); got != 0xef {
		t.Errorf("little endian violated: %#x", got)
	}
}

func TestFindRegionProperty(t *testing.T) {
	m := testMem()
	f := func(addr uint32) bool {
		addr %= 1 << 20
		r := m.FindRegion(addr)
		// Reference: linear scan.
		var want *Region
		for i := range m.Regions() {
			if m.Regions()[i].Contains(addr) {
				want = &m.Regions()[i]
			}
		}
		if want == nil {
			return r == nil
		}
		return r != nil && r.Name == want.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestHashSensitivity(t *testing.T) {
	m := testMem()
	h0 := m.Hash()
	m.WriteU8(0x3000, 1)
	if m.Hash() == h0 {
		t.Error("hash did not change after write")
	}
	m.WriteU8(0x3000, 0)
	if m.Hash() != h0 {
		t.Error("hash not restored after undo")
	}
}

func TestHashRange(t *testing.T) {
	m := testMem()
	h := m.HashRange(0x2000, 0x3000)
	m.WriteU8(0x3800, 0xff) // outside range
	if m.HashRange(0x2000, 0x3000) != h {
		t.Error("out-of-range write changed range hash")
	}
	m.WriteU8(0x2800, 0xff)
	if m.HashRange(0x2000, 0x3000) == h {
		t.Error("in-range write did not change range hash")
	}
}

func TestPermString(t *testing.T) {
	if got := (PermR | PermW | PermUser).String(); got != "rw-u" {
		t.Errorf("perm string = %q", got)
	}
}

// TestDiffWordsListsExactlyTheChangedWords pins the word-level diff the
// dead-state convergence rule walks: over the memory the snapshot was taken
// from (the pages it wrote since) and over a copy that shares no page with
// it (every page it holds), every changed word is listed once at its aligned
// address, a word written back to its old value is not, and a false return
// stops the walk.
func TestDiffWordsListsExactlyTheChangedWords(t *testing.T) {
	m := New(1 << 20)
	m.WriteU64(0x2000, 0x1122334455667788)
	m.WriteU64(0x9ff8, 7)
	base := m.Snapshot()
	m.WriteU32(0x2004, 0xdeadbeef) // second half of the 0x2000 word
	m.WriteU8(0x9ffa, 9)           // one byte of the 0x9ff8 word
	m.WriteU64(0x40000, 1)         // a page of zeros until now
	m.WriteU64(0x50000, 2)
	m.WriteU64(0x50000, 0) // back to its old value: no difference
	want := []uint32{0x2000, 0x9ff8, 0x40000}
	unshared := New(1 << 20) // shares no page: every page it holds is walked
	unshared.WriteBytes(0, m.ReadBytes(0, m.Size()))
	for name, mm := range map[string]*Memory{"shared": m, "unshared": unshared} {
		var got []uint32
		if !base.DiffWords(mm, 8, func(addr uint32) bool { got = append(got, addr); return true }) {
			t.Fatalf("%s: the walk stopped without being asked to", name)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: differing words %#x, want %#x", name, got, want)
		}
		n := 0
		if base.DiffWords(mm, 8, func(uint32) bool { n++; return false }) || n != 1 {
			t.Errorf("%s: a false return did not stop the walk (%d calls)", name, n)
		}
	}
	if base.DiffWords(New(2<<20), 8, func(uint32) bool { return true }) {
		t.Error("a memory of another size compared word by word")
	}
}

// heldPages counts the pages m holds, i.e. not the zero page.
func heldPages(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if &p[0] != &zeroPage[0] {
			n++
		}
	}
	return n
}

// TestUntouchedPagesCostNothing pins what makes a machine's RAM cost follow
// its guest: reads allocate nothing, a capture of unwritten RAM lists no page
// and holds no byte, and a page that a restore brings back to zero is the
// shared zero page again.
func TestUntouchedPagesCostNothing(t *testing.T) {
	m := New(24 << 20)
	for off := uint32(0); off < m.Size(); off += PageBytes {
		m.ReadU8(off)
		m.ReadU64(off + 8)
		if off+PageBytes < m.Size() {
			m.ReadU32(off + PageBytes - 2) // straddles into the next page
		}
	}
	if n := heldPages(m); n != 0 {
		t.Fatalf("reading every page of fresh RAM allocated %d pages", n)
	}
	if s := m.Snapshot(); len(s.pages) != 0 || Bytes(s) != 0 {
		t.Errorf("a snapshot of fresh RAM lists %d pages, %d bytes", len(s.pages), Bytes(s))
	}

	m.WriteU32(3*PageBytes, 1)
	s := m.Snapshot() // lists page 3 only
	m.WriteU64(5*PageBytes+8, 2)
	if n := heldPages(m); n != 2 {
		t.Fatalf("two written pages, %d held", n)
	}
	if touched := m.Restore(s); len(touched) != 1 || touched[0] != 5*PageBytes || heldPages(m) != 1 {
		t.Errorf("restore repointed %#x and left %d pages held, want page 5 alone and page 3 held", touched, heldPages(m))
	}
	if &m.PageAt(5 * PageBytes)[0] != &zeroPage[0] {
		t.Error("PageAt of a page restored to zero is not the shared zero page")
	}
}

// TestAccessPastSizePanics pins bounds parity with a flat image: every
// accessor panics at or past Size, also where Size is not a page multiple
// and the last page is short, and also for a multi-byte access that starts
// inside RAM and runs past its end. A page table that handed out whole zero
// pages there would read zeros instead.
func TestAccessPastSizePanics(t *testing.T) {
	for _, size := range []uint32{37, PageBytes - 1, PageBytes, PageBytes + 1, 8*PageBytes + 4093} {
		for name, access := range map[string]func(m *Memory){
			"ReadU8":          func(m *Memory) { m.ReadU8(size) },
			"WriteU8":         func(m *Memory) { m.WriteU8(size, 1) },
			"ReadU32":         func(m *Memory) { m.ReadU32(size - 3) },
			"WriteU32":        func(m *Memory) { m.WriteU32(size-3, 1) },
			"ReadU64":         func(m *Memory) { m.ReadU64(size - 7) },
			"WriteU64":        func(m *Memory) { m.WriteU64(size-7, 1) },
			"ReadU32 at end":  func(m *Memory) { m.ReadU32(size) },
			"ReadU64 far out": func(m *Memory) { m.ReadU64(size + PageBytes) },
			"ReadBytes":       func(m *Memory) { m.ReadBytes(size-1, 2) },
			"WriteBytes":      func(m *Memory) { m.WriteBytes(size+1, []byte{1}) },
		} {
			for _, written := range []bool{false, true} {
				m := New(size)
				if written { // the last page held privately, not the zero page
					m.WriteU8(size-1, 0xff)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("size %d, written=%v: %s past the end did not panic", size, written, name)
						}
					}()
					access(m)
				}()
			}
		}
		m := New(size)
		m.WriteBytes(size-1, []byte{1, 2, 3}) // clamps at the end, as before
		if got := m.ReadU8(size - 1); got != 1 {
			t.Errorf("size %d: clamped WriteBytes left %#x at the last byte", size, got)
		}
	}
}
