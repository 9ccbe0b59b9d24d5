package mem

import (
	"bytes"
	"testing"
)

// TestDeltaSnapshotCapturesOnlyDirtyPages pins the delta-chain contract at
// the mem layer: a delta holds exactly the pages whose contents changed
// since its parent, rewrites to identical contents are dropped, and pages
// zeroed over a non-zero parent get explicit zero markers.
func TestDeltaSnapshotCapturesOnlyDirtyPages(t *testing.T) {
	m := New(8 * PageBytes)
	m.WriteU32(0, 0x11111111)              // page 0
	m.WriteU32(3*PageBytes, 0x22222222)    // page 3
	m.WriteU32(5*PageBytes+40, 0x33333333) // page 5
	root := m.Snapshot()
	if root.Parent() != nil || root.Depth() != 0 {
		t.Fatalf("full snapshot parent=%v depth=%d", root.Parent(), root.Depth())
	}
	if len(root.pages) != 3 {
		t.Fatalf("root captured %d pages, want 3 sparse pages", len(root.pages))
	}

	// One real change, one rewrite-to-same, one page zeroed out.
	m.WriteU32(3*PageBytes, 0x44444444) // changed
	m.WriteU32(0, 0x11111111)           // dirtied, but same contents
	m.WriteU32(5*PageBytes+40, 0)       // page 5 becomes all-zero
	m.WriteU8(7*PageBytes, 0)           // dirtied a page that stays zero
	delta := m.DeltaSnapshot()
	if delta.Parent() != root || delta.Depth() != 1 {
		t.Fatalf("delta parent=%p depth=%d, want chained to root", delta.Parent(), delta.Depth())
	}
	if len(delta.pages) != 2 {
		t.Fatalf("delta captured %d pages, want 2 (one data, one zero marker)", len(delta.pages))
	}
	if p := delta.findPage(5 * PageBytes); p == nil || !p.zero {
		t.Errorf("page 5 should carry a zero marker, got %+v", p)
	}
	if p := delta.findPage(3 * PageBytes); p == nil || p.zero || len(p.data) != PageBytes {
		t.Errorf("page 3 should carry full data, got %+v", p)
	}

	// Telemetry: the delta costs one page, the chain costs root + delta.
	if delta.Bytes() != PageBytes {
		t.Errorf("delta Bytes = %d, want %d", delta.Bytes(), PageBytes)
	}
	if got, want := delta.ChainBytes(), root.Bytes()+delta.Bytes(); got != want {
		t.Errorf("ChainBytes = %d, want %d", got, want)
	}

	// Restoring root from the delta base walks the chain difference only.
	touched, selective := m.Restore(root)
	if !selective {
		t.Fatal("chain-related restore should take the selective path")
	}
	if len(touched) != 2 {
		t.Errorf("selective restore touched %d pages, want 2", len(touched))
	}
	if got := m.ReadU32(3 * PageBytes); got != 0x22222222 {
		t.Errorf("page 3 after restore = %#x", got)
	}
	if got := m.ReadU32(5*PageBytes + 40); got != 0x33333333 {
		t.Errorf("page 5 after restore = %#x", got)
	}
}

// TestDeltaOfChainsForeignMemory pins the terminal-image primitive: another
// memory's contents become a delta on an existing chain holding exactly the
// pages that differ from the parent (zero markers included), without
// touching the source's tracking, and a memory tracking the chain then
// compares against it selectively and exactly.
func TestDeltaOfChainsForeignMemory(t *testing.T) {
	m := New(8 * PageBytes)
	m.WriteU32(0, 0x11111111)
	m.WriteU32(3*PageBytes, 0x22222222)
	root := m.Snapshot()
	m.WriteU32(5*PageBytes, 0x33333333)
	tip := m.DeltaSnapshot()

	src := New(8 * PageBytes) // a different memory, never snapshotted
	src.WriteU32(0, 0x11111111)
	src.WriteU32(5*PageBytes, 0x33333333)
	src.WriteU32(6*PageBytes+8, 0x44444444) // page 3 stays zero in src
	final := tip.DeltaOf(src)
	if final.Parent() != tip || final.Depth() != 2 {
		t.Fatalf("DeltaOf parent=%p depth=%d, want chained onto tip", final.Parent(), final.Depth())
	}
	if len(final.pages) != 2 {
		t.Fatalf("DeltaOf captured %d pages, want 2 (page 3 zero marker, page 6 data)", len(final.pages))
	}
	if p := final.findPage(3 * PageBytes); p == nil || !p.zero {
		t.Errorf("page 3 should carry a zero marker, got %+v", p)
	}
	if src.Base() != nil {
		t.Error("DeltaOf re-anchored its source's tracking")
	}

	// m tracks tip: only pages 3 and 6 (chain path) can differ from final.
	if m.Base() != tip || final.EqualsMemory(m) {
		t.Fatal("m at tip must differ from final")
	}
	m.WriteU32(3*PageBytes, 0)
	m.WriteU32(6*PageBytes+8, 0x44444444)
	if !final.EqualsMemory(m) {
		t.Error("m rewritten to src's contents must equal final")
	}
	m.WriteU8(7*PageBytes+1, 1) // one dirty byte anywhere breaks equality
	if final.EqualsMemory(m) {
		t.Error("a dirty page differing from final went unnoticed")
	}
	if _, selective := m.Restore(root); !selective {
		t.Error("restore along the extended chain should stay selective")
	}
}

// TestTakeDirtyPagesDropsTrackingBase: once the bitmap has been consumed as
// a write log, clear bits no longer mean "equals base". A twin with cleared
// bits and a corrupted page must be reported unequal (the stale base used to
// make the selective compare skip that page), and the next Restore must
// rebuild the whole image.
func TestTakeDirtyPagesDropsTrackingBase(t *testing.T) {
	m := New(4 * PageBytes)
	m.WriteU32(0, 0x11111111)
	s := m.Snapshot()
	m.WriteU32(2*PageBytes+4, 0xbad) // corrupt a page, then drain the log
	if got := m.TakeDirtyPages(); len(got) != 1 || got[0] != 2*PageBytes {
		t.Fatalf("TakeDirtyPages = %v, want [%d]", got, 2*PageBytes)
	}
	if m.Base() != nil {
		t.Fatal("tracking base survived TakeDirtyPages")
	}
	if s.EqualsMemory(m) {
		t.Error("corrupted page with a cleared dirty bit reported equal")
	}
	if d := m.DeltaSnapshot(); d.Parent() != nil {
		t.Error("DeltaSnapshot chained onto a base whose invariant is gone")
	}
	m.TakeDirtyPages() // drop the base DeltaSnapshot's fallback re-anchored
	if _, selective := m.Restore(s); selective {
		t.Error("Restore after TakeDirtyPages took the selective path")
	}
	if !s.EqualsMemory(m) || m.ReadU32(2*PageBytes+4) != 0 {
		t.Error("full restore did not repair the corrupted page")
	}
}

// TestFullRestoreClearsAnyWrittenMemory: a full restore leaves the snapshot's
// image whatever the memory held before: unwritten, or written with the
// dirty bit still set, drained by TakeDirtyPages or a capture since, or after
// an earlier restore. Every page the snapshot holds as zero reads zero.
func TestFullRestoreClearsAnyWrittenMemory(t *testing.T) {
	src := New(4 * PageBytes)
	src.WriteU32(PageBytes, 0x22222222)
	s := src.Snapshot() // page 0 and pages 2-3 are zero gaps in s
	for name, prep := range map[string]func(m *Memory){
		"fresh":            func(*Memory) {},
		"dirty":            func(m *Memory) { m.WriteU32(8, 1) },
		"drained":          func(m *Memory) { m.WriteU32(8, 1); m.TakeDirtyPages() },
		"captured":         func(m *Memory) { m.WriteU32(3*PageBytes, 1); m.Snapshot(); m.TakeDirtyPages() },
		"restored-written": func(m *Memory) { m.Restore(s); m.WriteU32(8, 1); m.TakeDirtyPages() },
	} {
		m := New(4 * PageBytes)
		prep(m)
		if _, selective := m.Restore(s); selective {
			t.Fatalf("%s: restore took the selective path", name)
		}
		if !bytes.Equal(image(m), image(src)) {
			t.Errorf("%s: full restore left RAM unlike the snapshot", name)
		}
	}
}
