package mem

import (
	"bytes"
	"slices"
	"testing"
)

// TestSnapshotsSharePages pins the copy-on-write contract at the mem layer:
// a capture lists the pages the memory holds and shares them, a page is
// copied on its first write after a capture, a second capture shares every
// page not written in between with the first, a restore repoints exactly the
// pages whose slices differ, and a memory that shares no page with a
// snapshot compares equal exactly when its bytes are.
func TestSnapshotsSharePages(t *testing.T) {
	m := New(8 * PageBytes)
	m.WriteU32(0, 0x11111111)              // page 0
	m.WriteU32(2*PageBytes, 0x55555555)    // page 2
	m.WriteU32(3*PageBytes, 0x22222222)    // page 3
	m.WriteU32(5*PageBytes+40, 0x33333333) // page 5
	root, rootRAM := m.Snapshot(), image(m)
	if len(root.pages) != 4 || Bytes(root) != 4*PageBytes || !sharesEveryPage(root, m) {
		t.Fatalf("root lists %d pages, %d bytes, shared=%v; want the 4 written pages, shared", len(root.pages), Bytes(root), sharesEveryPage(root, m))
	}

	m.WriteU32(3*PageBytes, 0x44444444) // changed
	m.WriteU32(0, 0x11111111)           // written, same contents
	m.WriteU32(5*PageBytes+40, 0)       // page 5 becomes all-zero
	m.WriteU8(7*PageBytes, 0)           // a page that stays zero
	if got := m.ReadU32(3 * PageBytes); got != 0x44444444 || !readsBack(root, rootRAM) {
		t.Fatalf("page 3 reads %#x and root changed with it: the writes did not copy the pages", got)
	}
	next := m.Snapshot()
	if got, want := Bytes(root, next), 8*PageBytes; got != want {
		t.Errorf("root and next hold %d bytes together, want %d (page 2 shared, four copies)", got, want)
	}
	if &next.pages[1].data[0] != &root.pages[1].data[0] {
		t.Error("page 2, not written between the captures, is not shared")
	}

	touched := m.Restore(root)
	if want := []uint32{0, 3 * PageBytes, 5 * PageBytes, 7 * PageBytes}; !equalOffsets(touched, want) {
		t.Errorf("restore repointed %#x, want %#x", touched, want)
	}
	if !sharesEveryPage(root, m) || m.ReadU32(3*PageBytes) != 0x22222222 || m.ReadU32(5*PageBytes+40) != 0x33333333 {
		t.Error("restore did not bring back root's pages")
	}
	if touched := m.Restore(root); len(touched) != 0 {
		t.Errorf("restoring the snapshot a memory shares everything with repointed %#x", touched)
	}

	// Another memory with root's bytes, written page by page: no page is
	// shared, every one is compared.
	src := New(8 * PageBytes)
	src.WriteBytes(0, image(m))
	if !root.EqualsMemory(src) || next.EqualsMemory(src) {
		t.Error("an unshared copy of root's bytes compares unlike root")
	}
	src.WriteU8(6*PageBytes+1, 1)
	if root.EqualsMemory(src) {
		t.Error("a byte written on a page root lists as zero went unnoticed")
	}
	if root.EqualsMemory(New(4 * PageBytes)) {
		t.Error("a memory of another size compared equal")
	}
}

// TestTakeDirtyPagesKeepsComparesExact: draining the write log changes no
// page's ownership. A page written and drained is still reported unequal,
// a later write to it is logged again, and a restore repairs it.
func TestTakeDirtyPagesKeepsComparesExact(t *testing.T) {
	m := New(4 * PageBytes)
	m.WriteU32(0, 0x11111111)
	s := m.Snapshot()
	m.WriteU32(2*PageBytes+4, 0xbad) // corrupt a page, then drain the log
	if got := m.TakeDirtyPages(); len(got) != 1 || got[0] != 2*PageBytes {
		t.Fatalf("TakeDirtyPages = %v, want [%d]", got, 2*PageBytes)
	}
	if s.EqualsMemory(m) {
		t.Error("corrupted page with a drained log reported equal")
	}
	m.WriteU32(2*PageBytes+8, 1)
	if got := m.TakeDirtyPages(); len(got) != 1 || got[0] != 2*PageBytes {
		t.Errorf("a write to a drained page logged %v, want [%d]", got, 2*PageBytes)
	}
	if touched := m.Restore(s); len(touched) != 1 || !s.EqualsMemory(m) || m.ReadU32(2*PageBytes+4) != 0 {
		t.Error("restore did not repair the corrupted page")
	}
}

// TestFullRestoreClearsAnyWrittenMemory: a restore leaves the snapshot's
// image whatever the memory held before: unwritten, or written with the page
// still dirty, drained by TakeDirtyPages or a capture since, or after an
// earlier restore. Every page the snapshot lists none for reads zero, and a
// snapshot of another RAM size is refused.
func TestFullRestoreClearsAnyWrittenMemory(t *testing.T) {
	src := New(4 * PageBytes)
	src.WriteU32(PageBytes, 0x22222222)
	s := src.Snapshot() // page 0 and pages 2-3 are zero in s
	for name, prep := range map[string]func(m *Memory){
		"fresh":            func(*Memory) {},
		"dirty":            func(m *Memory) { m.WriteU32(8, 1) },
		"drained":          func(m *Memory) { m.WriteU32(8, 1); m.TakeDirtyPages() },
		"captured":         func(m *Memory) { m.WriteU32(3*PageBytes, 1); m.Snapshot(); m.TakeDirtyPages() },
		"restored-written": func(m *Memory) { m.Restore(s); m.WriteU32(8, 1); m.TakeDirtyPages() },
	} {
		m := New(4 * PageBytes)
		prep(m)
		m.Restore(s)
		if !bytes.Equal(image(m), image(src)) || !sharesEveryPage(s, m) {
			t.Errorf("%s: restore left RAM unlike the snapshot", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a restore across RAM sizes did not panic")
		}
	}()
	New(8 * PageBytes).Restore(s)
}

// TestRestoreRecyclesPages: a page a restore replaces and the memory owned
// goes on the free list, and the next first write takes its copy from there,
// so a write-then-restore cycle, the shape of every injection run, allocates
// nothing once warm.
func TestRestoreRecyclesPages(t *testing.T) {
	m := New(24 << 20)
	for pn := uint32(0); pn < 64; pn++ {
		m.WriteU64(pn*PageBytes, uint64(pn)+1)
	}
	s := m.Snapshot()
	run := func() {
		for pn := uint32(0); pn < 96; pn += 3 {
			m.WriteU32(pn*PageBytes+8, pn)
		}
		m.Restore(s)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a write-then-restore cycle allocates %.0f times", allocs)
	}
	if !readsBack(s, image(m)) {
		t.Error("recycled pages leaked into the snapshot")
	}
}

// TestSnapshotPatchCopiesOnlyItsPages pins the page-patch primitive an image's
// per-scenario words go through: the copy holds fresh copies of exactly the
// pages the patch lands on, one it does not list (the zero page) included,
// shares every other page with the source, and the source reads and shares
// as before, byte for byte.
func TestSnapshotPatchCopiesOnlyItsPages(t *testing.T) {
	m := New(8*PageBytes - 100) // a short final page
	m.WriteU32(0, 0x11111111)
	m.WriteU32(PageBytes+8, 0x22222222)
	m.WriteU32(3*PageBytes, 0x33333333)
	m.Map(Region{Name: "data", Start: 0, End: 4 * PageBytes, Perm: PermR | PermW})
	src := m.Snapshot()
	srcRAM, srcPages := image(m), append([]snapPage(nil), src.pages...)

	want := append([]byte(nil), srcRAM...)
	straddle := PageBytes - 2 // two bytes on page 0, two on page 1
	copy(want[straddle:], []byte{1, 2, 3, 4})
	zero := 5*PageBytes + 7 // page 5 is listed nowhere
	copy(want[zero:], []byte{5, 6})
	tail := uint32(len(want)) - 3 // the short final page
	copy(want[tail:], []byte{7, 8, 9})
	patched := src.Patch(uint32(straddle), []byte{1, 2, 3, 4}).Patch(uint32(zero), []byte{5, 6}).Patch(tail, []byte{7, 8, 9})

	if !readsBack(patched, want) {
		t.Error("the patched copy does not read the source with the patches applied")
	}
	if !readsBack(src, srcRAM) || len(src.pages) != len(srcPages) {
		t.Fatal("patching changed the source snapshot's bytes or its page list")
	}
	for i, p := range src.pages {
		if p.pn != srcPages[i].pn || &p.data[0] != &srcPages[i].data[0] {
			t.Fatalf("source page %d was repointed", p.pn)
		}
	}
	if !bytes.Equal(zeroPage[:], make([]byte, PageBytes)) {
		t.Fatal("patching a page the source does not list wrote the zero page")
	}
	fresh := map[uint32]bool{0: true, 1: true, 5: true, 7: true}
	for _, p := range patched.pages {
		i := slices.IndexFunc(srcPages, func(q snapPage) bool { return q.pn == p.pn })
		shared := i >= 0 && &srcPages[i].data[0] == &p.data[0]
		if shared == fresh[p.pn] {
			t.Errorf("page %d shared with the source: %v, want %v", p.pn, shared, !fresh[p.pn])
		}
	}
	if got := len(patched.pages); got != len(srcPages)+2 {
		t.Errorf("the patched copy lists %d pages, want %d: the source's plus pages 5 and 7", got, len(srcPages)+2)
	}

	r := New(m.Size())
	r.Restore(patched)
	if !bytes.Equal(image(r), want) || len(r.Regions()) != 1 {
		t.Error("restoring the patched copy does not give its bytes and the source's region table")
	}
	defer func() {
		if recover() == nil {
			t.Error("a patch past the end of RAM did not panic")
		}
	}()
	src.Patch(m.Size()-1, []byte{1, 2})
}
