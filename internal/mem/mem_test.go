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
// dead-state convergence rule walks: over a memory tracking the snapshot
// (dirty pages only) and over one with no tracking base (every page), every
// changed word is listed once at its aligned address, a word written back to
// its old value is not, and a false return stops the walk.
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
	untracked := New(1 << 20) // no tracking base: every page is walked
	untracked.WriteBytes(0, m.ReadBytes(0, m.Size()))
	for name, mm := range map[string]*Memory{"tracking base": m, "no base": untracked} {
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
