// Package mem provides the flat physical memory of a simulated machine plus
// the region/permission table that stands in for an MMU. There is no paging:
// the guest kernel and applications share one physical address space, and
// segmentation faults arise from region permission violations exactly as the
// paper's "access outside its permissions" UT mechanism requires.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
)

// Perm is a region permission bitmask.
type Perm uint8

// Permission bits. PermUser marks a region accessible from user mode;
// kernel mode may access every mapped region.
const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermUser
)

// String renders the permission like "rwxu".
func (p Perm) String() string {
	b := []byte("----")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	if p&PermUser != 0 {
		b[3] = 'u'
	}
	return string(b)
}

// Region is a mapped address range [Start, End).
type Region struct {
	Name  string
	Start uint32
	End   uint32
	Perm  Perm
}

// Contains reports whether addr lies in the region.
func (r Region) Contains(addr uint32) bool { return addr >= r.Start && addr < r.End }

// Fault describes a rejected access.
type Fault struct {
	Addr  uint32
	Write bool
	Exec  bool
	User  bool
	What  string // "unmapped" or "perm"
}

// Error implements error.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	if f.Exec {
		kind = "exec"
	}
	mode := "kernel"
	if f.User {
		mode = "user"
	}
	return fmt.Sprintf("%s fault: %s %s at %#x", f.What, mode, kind, f.Addr)
}

// Memory is the physical RAM image plus its region table. Memory is not safe
// for concurrent use; each simulated machine owns one.
type Memory struct {
	ram     []byte
	regions []Region // sorted by Start
	// Two-entry locality cache over region lookups: data accesses
	// typically alternate between two regions (e.g. heap and stack), so a
	// single slot thrashes exactly on the hottest pattern.
	last, last2 int

	// Copy-on-write tracking. dirty holds one bit per PageBytes page, set by
	// every write accessor below. base is the snapshot this memory diverged
	// from: the invariant, kept continuously, is that ram matches base's
	// materialized contents at every page whose dirty bit is clear.
	// Snapshot, DeltaSnapshot and Restore re-anchor the pair; TakeDirtyPages
	// drops the base (nil base = no invariant, every compare/restore is full).
	dirty []uint64
	base  *Snapshot
}

// New allocates size bytes of zeroed RAM with no mapped regions.
func New(size uint32) *Memory {
	return &Memory{ram: make([]byte, size), dirty: make([]uint64, dirtyWords(size))}
}

// Size returns the RAM size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.ram)) }

// Map adds a region. Regions must not overlap; Map panics on programmer
// error since the memory map is fixed at machine construction.
func (m *Memory) Map(r Region) {
	if r.End <= r.Start || r.End > m.Size() {
		panic(fmt.Sprintf("mem: bad region %s [%#x,%#x) for RAM size %#x", r.Name, r.Start, r.End, m.Size()))
	}
	for _, o := range m.regions {
		if r.Start < o.End && o.Start < r.End {
			panic(fmt.Sprintf("mem: region %s overlaps %s", r.Name, o.Name))
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Start < m.regions[j].Start })
	m.last, m.last2 = 0, 0
}

// Regions returns the region table (shared slice; callers must not modify).
func (m *Memory) Regions() []Region { return m.regions }

// FindRegion returns the region containing addr, or nil.
func (m *Memory) FindRegion(addr uint32) *Region {
	if m.last < len(m.regions) && m.regions[m.last].Contains(addr) {
		return &m.regions[m.last]
	}
	if m.last2 < len(m.regions) && m.regions[m.last2].Contains(addr) {
		m.last, m.last2 = m.last2, m.last
		return &m.regions[m.last]
	}
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.regions[mid].Start > addr {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return nil
	}
	if r := &m.regions[lo-1]; r.Contains(addr) {
		m.last, m.last2 = lo-1, m.last
		return r
	}
	return nil
}

// Check validates an access of size bytes at addr. user selects user-mode
// permission checking; want is the required permission (PermR, PermW or
// PermX). It returns nil when the access is allowed.
func (m *Memory) Check(addr uint32, size uint32, want Perm, user bool) *Fault {
	end := addr + size
	if end < addr || end > m.Size() {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "unmapped"}
	}
	r := m.FindRegion(addr)
	if r == nil || end > r.End {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "unmapped"}
	}
	if r.Perm&want == 0 || (user && r.Perm&PermUser == 0) {
		return &Fault{Addr: addr, Write: want == PermW, Exec: want == PermX, User: user, What: "perm"}
	}
	return nil
}

// The raw accessors below skip permission checks; they are used by the
// machine after Check, by loaders, and by the fault injector. Every mutation
// of RAM flows through them — that is what makes the dirty-page bitmap a
// complete record of divergence from the tracking base.

// ReadU8 reads one byte.
func (m *Memory) ReadU8(addr uint32) uint8 { return m.ram[addr] }

// WriteU8 writes one byte.
func (m *Memory) WriteU8(addr uint32, v uint8) {
	m.ram[addr] = v
	m.markPage(addr)
}

// ReadU32 reads a little-endian 32-bit value.
func (m *Memory) ReadU32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(m.ram[addr : addr+4])
}

// WriteU32 writes a little-endian 32-bit value.
func (m *Memory) WriteU32(addr uint32, v uint32) {
	binary.LittleEndian.PutUint32(m.ram[addr:addr+4], v)
	m.markPage(addr)
	m.markPage(addr + 3)
}

// ReadU64 reads a little-endian 64-bit value.
func (m *Memory) ReadU64(addr uint32) uint64 {
	return binary.LittleEndian.Uint64(m.ram[addr : addr+8])
}

// WriteU64 writes a little-endian 64-bit value.
func (m *Memory) WriteU64(addr uint32, v uint64) {
	binary.LittleEndian.PutUint64(m.ram[addr:addr+8], v)
	m.markPage(addr)
	m.markPage(addr + 7)
}

// ReadBytes copies n bytes starting at addr.
func (m *Memory) ReadBytes(addr, n uint32) []byte {
	out := make([]byte, n)
	copy(out, m.ram[addr:addr+n])
	return out
}

// WriteBytes copies b into RAM at addr, clamping at the end of RAM.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	if n := uint32(copy(m.ram[addr:], b)); n > 0 {
		m.markRange(addr, n)
	}
}

// PageBytes is the page granularity of dirty-write tracking and snapshot
// capture. Small enough that a checkpoint delta pays for pages, not whole
// RAM images; large enough that the per-write bitmap update and the sparse
// page walk stay cheap.
const (
	PageBytes = 1 << 14
	pageShift = 14
)

// zeroPage is the all-zero reference chunk used to detect empty pages.
var zeroPage [PageBytes]byte

func dirtyWords(size uint32) int {
	pages := (uint64(size) + PageBytes - 1) / PageBytes
	return int((pages + 63) / 64)
}

// markPage records a write into the page containing addr. Called after the
// RAM write, so an out-of-range access panics before any bit is set and
// marked pages always exist.
func (m *Memory) markPage(addr uint32) {
	p := addr >> pageShift
	m.dirty[p>>6] |= 1 << (p & 63)
}

// markRange records a write spanning [addr, addr+n), n > 0.
func (m *Memory) markRange(addr, n uint32) {
	for p := addr >> pageShift; p <= (addr+n-1)>>pageShift; p++ {
		m.dirty[p>>6] |= 1 << (p & 63)
	}
}

// eachDirtyPage calls fn with the start offset of every dirty page, in
// ascending order.
func (m *Memory) eachDirtyPage(fn func(off uint32)) {
	for wi, w := range m.dirty {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &^= 1 << b
			fn((uint32(wi)*64 + uint32(b)) << pageShift)
		}
	}
}

// TakeDirtyPages returns the start offsets of every dirty page in ascending
// order and clears the bitmap. Clearing the bits breaks the "ram matches base
// at clear-dirty pages" invariant, so the tracking base is dropped with them:
// every later EqualsMemory or Restore on this memory takes the full path
// (Restore re-anchors) and DeltaSnapshot falls back to a full capture. It
// exists for the propagation tracer's twin machines, which use the bitmap
// purely as a write log between lockstep boundaries.
func (m *Memory) TakeDirtyPages() []uint32 {
	var out []uint32
	m.eachDirtyPage(func(off uint32) { out = append(out, off) })
	m.Rebase(nil)
	return out
}

// PageAt returns a read-only view of the page starting at off (the final
// page may be short). Callers must not modify the returned slice.
func (m *Memory) PageAt(off uint32) []byte {
	return m.ram[off:pageEnd(off, m.Size())]
}

// pageEnd returns the end of the page starting at off in a memory of the
// given size (the final page may be short). Written as a subtraction so a
// page ending exactly at 1<<32 cannot overflow.
func pageEnd(off, size uint32) uint32 {
	if size-off < PageBytes {
		return size
	}
	return off + PageBytes
}

func isZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// snapPage is one RAM page captured by a Snapshot: data carries the
// contents, or zero marks a page that is all-zero (meaningful in deltas,
// where the parent's page may not be).
type snapPage struct {
	off  uint32
	data []byte
	zero bool
}

// Snapshot is an immutable copy of the RAM contents and region table at one
// instant — either a full capture or a delta chained to a parent. It is safe
// to share across goroutines; Restore and EqualsMemory only read it.
type Snapshot struct {
	size    uint32
	pages   []snapPage // ascending by off
	regions []Region

	// Delta chain: parent is the snapshot whose materialized image this
	// one's pages patch (nil for a full capture); depth is the chain length
	// above the root, used to find common ancestors in O(depth).
	parent *Snapshot
	depth  int
}

// Parent returns the snapshot this delta patches, or nil for a full capture.
func (s *Snapshot) Parent() *Snapshot { return s.parent }

// Depth returns the delta-chain length above the root full capture (0 for a
// full capture).
func (s *Snapshot) Depth() int { return s.depth }

// Bytes returns the number of payload bytes the snapshot holds (test and
// telemetry helper; zero markers count nothing).
func (s *Snapshot) Bytes() int {
	n := 0
	for _, p := range s.pages {
		n += len(p.data)
	}
	return n
}

// ChainBytes returns the payload of the whole chain this snapshot restores
// through: its own pages plus every ancestor's.
func (s *Snapshot) ChainBytes() int {
	n := 0
	for c := s; c != nil; c = c.parent {
		n += c.Bytes()
	}
	return n
}

// findPage returns the snapshot's own entry for the page at off, or nil.
func (s *Snapshot) findPage(off uint32) *snapPage {
	lo, hi := 0, len(s.pages)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.pages[mid].off < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.pages) && s.pages[lo].off == off {
		return &s.pages[lo]
	}
	return nil
}

// pageData returns the materialized contents of the page at off: the
// nearest chain entry holding the page wins, and absence all the way past
// the root means all-zero (nil return, matching the full capture's
// gap-means-zero convention). The returned slice is the chain's own page:
// callers must not modify it.
func (s *Snapshot) pageData(off uint32) []byte {
	for c := s; c != nil; c = c.parent {
		if p := c.findPage(off); p != nil {
			return p.data // nil for a zero marker
		}
	}
	return nil
}

// Snapshot captures the current RAM image and region table as a full copy
// (no parent) and re-anchors the memory's dirty tracking on it.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		size:    m.Size(),
		regions: append([]Region(nil), m.regions...),
	}
	for off := uint32(0); off < s.size; off = pageEnd(off, s.size) {
		chunk := m.ram[off:pageEnd(off, s.size)]
		if isZero(chunk) {
			continue
		}
		s.pages = append(s.pages, snapPage{off: off, data: append([]byte(nil), chunk...)})
	}
	m.Rebase(s)
	obsSnapshotFull.Inc()
	obsSnapshotPagesFull.Add(float64(len(s.pages)))
	return s
}

// DeltaSnapshot captures the pages written since the memory's tracking base
// — the snapshot most recently captured from or restored into it — as a
// delta chained to that base, then re-anchors tracking on the result.
// Dirty pages whose contents still match the base are dropped; pages that
// became all-zero get explicit zero markers, because a delta cannot reuse
// the full capture's gap-means-zero convention. With no usable base the
// capture falls back to a full Snapshot. Restoring the delta is
// bit-identical to restoring a full capture of the same instant.
func (m *Memory) DeltaSnapshot() *Snapshot {
	if m.base == nil || m.base.size != m.Size() {
		return m.Snapshot()
	}
	s := &Snapshot{
		size:    m.Size(),
		regions: append([]Region(nil), m.regions...),
		parent:  m.base,
		depth:   m.base.depth + 1,
	}
	m.eachDirtyPage(func(off uint32) { s.patch(off, m.ram[off:pageEnd(off, s.size)], false) })
	m.Rebase(s)
	obsSnapshotDelta.Inc()
	obsSnapshotPagesDelta.Add(float64(len(s.pages)))
	return s
}

// patch records the page at off in delta s if chunk differs from the
// parent's materialization (all-zero when s has no parent): nothing when
// equal, an explicit zero marker when the page became all-zero, otherwise
// chunk itself when it is immutable snapshot payload already (shared) and a
// private copy when it is live RAM.
func (s *Snapshot) patch(off uint32, chunk []byte, shared bool) {
	was := s.parent.pageData(off)
	switch {
	case was == nil && isZero(chunk), was != nil && bytes.Equal(chunk, was):
		// Still zero over a zero parent page, or the parent's contents again.
	case isZero(chunk):
		s.pages = append(s.pages, snapPage{off: off, zero: true})
	case shared:
		s.pages = append(s.pages, snapPage{off: off, data: chunk})
	default:
		s.pages = append(s.pages, snapPage{off: off, data: append([]byte(nil), chunk...)})
	}
}

// DeltaOf captures the current contents of another memory of the same size
// as a delta chained onto s, by comparing every page: src's tracking state is
// neither trusted nor touched. This is how an image that was not produced by
// running forward from s (the golden run's terminal RAM) joins s's chain, so
// that memories tracking any snapshot of the chain compare against it
// selectively.
func (s *Snapshot) DeltaOf(src *Memory) *Snapshot {
	d := &Snapshot{size: s.size, regions: s.regions, parent: s, depth: s.depth + 1}
	for off := uint32(0); off < s.size; off = pageEnd(off, s.size) {
		d.patch(off, src.ram[off:pageEnd(off, s.size)], false)
	}
	obsSnapshotDelta.Inc()
	obsSnapshotPagesDelta.Add(float64(len(d.pages)))
	return d
}

// Squash rebuilds a delta chain around the snapshots in keep — members of one
// chain in ascending order, each an ancestor of the next — and returns the
// new chain: out[i] materializes exactly like keep[i], out[0] is a full image
// and out[i] patches out[i-1]. The deltas of the members left out are folded
// into the next kept one: the latest write to a page wins, a page that is
// back to the kept predecessor's contents is dropped, and a zero marker
// survives only over a page that predecessor holds. Page payloads are shared
// with the input chain, which is not modified (snapshots stay immutable), and
// a snapshot already chained the way the result needs it is reused as is, so
// squashing a chain around all of its members returns them.
func Squash(keep []*Snapshot) []*Snapshot {
	out := make([]*Snapshot, len(keep))
	for i, k := range keep {
		var anc, parent *Snapshot
		if i > 0 {
			anc, parent = keep[i-1], out[i-1]
		}
		if k.parent == anc && parent == anc {
			out[i] = k
			continue
		}
		s := &Snapshot{size: k.size, regions: k.regions, parent: parent}
		if parent != nil {
			s.depth = parent.depth + 1
		}
		// Nearest delta first: the first entry met for a page is the one k
		// materializes.
		var pages []snapPage
		seen := make(map[uint32]struct{})
		for c := k; c != anc; c = c.parent {
			if c == nil {
				panic("mem: Squash: keep is not an ascending chain")
			}
			for _, p := range c.pages {
				if _, dup := seen[p.off]; !dup {
					seen[p.off] = struct{}{}
					pages = append(pages, p)
				}
			}
		}
		sort.Slice(pages, func(a, b int) bool { return pages[a].off < pages[b].off })
		for _, p := range pages {
			s.patch(p.off, p.data, true) // nil data is a zero marker: an all-zero page
		}
		out[i] = s
	}
	return out
}

// Rebase re-anchors dirty tracking on s and clears the dirty bitmap: the
// caller asserts that RAM equals s's materialization at this instant. Nil
// switches tracking off. Snapshot, DeltaSnapshot and Restore rebase by
// themselves; the exported form is for a holder that has replaced the chain
// under the tracking base with an equivalent one (Squash).
func (m *Memory) Rebase(s *Snapshot) {
	m.base = s
	clear(m.dirty)
}

// Base returns the tracking base, nil when there is none. Restore and
// EqualsMemory are selective exactly when it shares a chain with their
// argument.
func (m *Memory) Base() *Snapshot { return m.base }

// commonAncestor returns the deepest snapshot present on both chains, or
// nil when the chains share no root (snapshots of unrelated memories).
func commonAncestor(a, b *Snapshot) *Snapshot {
	for a != nil && b != nil && a != b {
		if a.depth >= b.depth {
			a = a.parent
		} else {
			b = b.parent
		}
	}
	if a == b {
		return a
	}
	return nil
}

// diffPages collects the page offsets at which m's RAM may differ from
// target's materialization: m's dirty pages plus every page recorded on the
// chain paths from m.base and from target down to their common ancestor.
// All other pages are equal by the dirty-tracking invariant.
func (m *Memory) diffPages(target, anc *Snapshot) map[uint32]struct{} {
	set := make(map[uint32]struct{})
	m.eachDirtyPage(func(off uint32) { set[off] = struct{}{} })
	for c := m.base; c != anc; c = c.parent {
		for _, p := range c.pages {
			set[p.off] = struct{}{}
		}
	}
	for c := target; c != anc; c = c.parent {
		for _, p := range c.pages {
			set[p.off] = struct{}{}
		}
	}
	return set
}

// pageEquals compares one page of m's RAM against the snapshot's
// materialized contents.
func (s *Snapshot) pageEquals(m *Memory, off uint32) bool {
	chunk := m.ram[off:pageEnd(off, s.size)]
	if want := s.pageData(off); want != nil {
		return bytes.Equal(chunk, want)
	}
	return isZero(chunk)
}

// EqualsMemory reports whether a memory's current RAM contents are
// bit-identical to the snapshot's materialization (region tables are fixed
// per image and not compared). When the memory's tracking base shares a
// chain with s, only the pages that can differ — dirty pages plus the chain
// paths between base and s — are compared; otherwise every page is. The
// comparison never mutates tracking state.
func (s *Snapshot) EqualsMemory(m *Memory) bool {
	if m.Size() != s.size {
		return false
	}
	if m.base != nil {
		if anc := commonAncestor(m.base, s); anc != nil {
			for off := range m.diffPages(s, anc) {
				if !s.pageEquals(m, off) {
					return false
				}
			}
			return true
		}
	}
	for off := uint32(0); off < s.size; off = pageEnd(off, s.size) {
		if !s.pageEquals(m, off) {
			return false
		}
	}
	return true
}

// Restore resets RAM and the region table to a snapshot's materialized
// state and re-anchors dirty tracking on it. When the memory's tracking
// base shares a chain with s, only the pages that can differ are rewritten
// and their start offsets are returned with selective=true, so the caller
// can invalidate derived state (decoded text) page by page instead of
// wholesale. Otherwise the entire image is rebuilt and selective is false.
func (m *Memory) Restore(s *Snapshot) (touched []uint32, selective bool) {
	if m.Size() == s.size && m.base != nil {
		if anc := commonAncestor(m.base, s); anc != nil {
			for off := range m.diffPages(s, anc) {
				chunk := m.ram[off:pageEnd(off, s.size)]
				if want := s.pageData(off); want != nil {
					copy(chunk, want)
				} else {
					clear(chunk)
				}
				touched = append(touched, off)
			}
			m.finishRestore(s)
			obsRestoreSelective.Inc()
			obsRestorePages.Add(float64(len(touched)))
			return touched, true
		}
	}
	if m.Size() != s.size {
		m.ram = make([]byte, s.size)
		m.dirty = make([]uint64, dirtyWords(s.size))
	} else {
		clear(m.ram)
	}
	s.materializeInto(m.ram)
	m.finishRestore(s)
	obsRestoreFull.Inc()
	return nil, false
}

func (m *Memory) finishRestore(s *Snapshot) {
	m.regions = append(m.regions[:0], s.regions...)
	m.last, m.last2 = 0, 0
	m.Rebase(s)
}

// materializeInto writes the chain's full image into ram (already zeroed):
// root pages first, then each delta in chain order, so nearer entries
// overwrite their ancestors'.
func (s *Snapshot) materializeInto(ram []byte) {
	var chain []*Snapshot
	for c := s; c != nil; c = c.parent {
		chain = append(chain, c)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		c := chain[i]
		for _, p := range c.pages {
			dst := ram[p.off:pageEnd(p.off, s.size)]
			if p.zero {
				clear(dst)
			} else {
				copy(dst, p.data)
			}
		}
	}
}

// Hash returns a 64-bit FNV-1a digest of all of RAM (byte-serial, ~1 ms per
// MiB). Nothing on the injection path calls it — runs are classified by exact
// page compare against the golden terminal image (Snapshot.EqualsMemory) —
// it is the independent reference tests and the benchmark compare against.
func (m *Memory) Hash() uint64 {
	h := fnv.New64a()
	h.Write(m.ram)
	return h.Sum64()
}

// HashRange digests the half-open byte range [start, end).
func (m *Memory) HashRange(start, end uint32) uint64 {
	h := fnv.New64a()
	h.Write(m.ram[start:end])
	return h.Sum64()
}
