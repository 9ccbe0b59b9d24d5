package cc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"serfi/internal/isa"
	"serfi/internal/mach"
	"serfi/internal/mem"
)

// LinkConfig sizes the image layout. The heap is everything between the
// data segments and the stack region.
type LinkConfig struct {
	RAMBytes    uint32
	StackRegion uint32 // total bytes reserved for user thread stacks
	TickCycles  uint64 // scheduler quantum (published to the kernel)
}

// stackBytes is the per-thread stack size (published to the kernel).
const stackBytes = 64 << 10

// DefaultLinkConfig returns a layout suitable for the NPB-scale workloads.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{
		RAMBytes:    24 << 20,
		StackRegion: 4 << 20,
		TickCycles:  20000,
	}
}

// Symbol is a linked function or global.
type Symbol struct {
	Name string
	Addr uint32
	Size uint32
	Func bool
	Seg  Seg
}

// Image is a fully linked bootable software stack. Its payload, the initial
// RAM and region table, is a page snapshot (mem.Memory.Image) that every copy
// and every machine installed from it shares until one of them writes a page.
type Image struct {
	ISAName string
	Feat    isa.Features
	Entry   uint32
	// TextEnd bounds the decoded-instruction cache (end of user text).
	TextEnd  uint32
	Regions  []mem.Region
	Symbols  map[string]Symbol
	HeapBase uint32
	HeapEnd  uint32
	ram      *mem.Snapshot
	byAddr   []Symbol // functions sorted by address, for pc lookup
}

// Config symbols the linker fills in when the kernel declares them.
var cfgSymbols = []string{
	"__cfg_user_entry", "__cfg_heap_base", "__cfg_heap_end",
	"__cfg_stacks_base", "__cfg_stacks_end", "__cfg_stack_size",
	"__cfg_tick", "__cfg_ktext_end",
}

// Link compiles and lays out the kernel and user programs into one image.
// The kernel must define "__vector" (placed exactly at the machine's vector
// base) and "__start"; the user side must define "main".
func Link(codec isa.ISA, kernel, user []*Program, cfg LinkConfig) (*Image, error) {
	if cfg.RAMBytes == 0 {
		cfg = DefaultLinkConfig()
	}
	feat := codec.Feat()
	wb := uint32(feat.WordBytes)

	type placedFunc struct {
		cf   *CompiledFunc
		seg  Seg
		addr uint32
	}
	var funcs []placedFunc
	compileAll := func(progs []*Program, seg Seg) error {
		for _, p := range progs {
			cfs, err := Compile(p, codec)
			if err != nil {
				return err
			}
			for _, cf := range cfs {
				funcs = append(funcs, placedFunc{cf: cf, seg: seg})
			}
		}
		return nil
	}
	if err := compileAll(kernel, SegKernel); err != nil {
		return nil, err
	}
	if err := compileAll(user, SegUser); err != nil {
		return nil, err
	}

	// The vector handler leads the kernel text.
	vi := -1
	for i := range funcs {
		if funcs[i].cf.Name == "__vector" {
			vi = i
			break
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("link: kernel does not define __vector")
	}
	funcs[0], funcs[vi] = funcs[vi], funcs[0]

	img := &Image{
		ISAName: feat.Name,
		Feat:    feat,
		Symbols: make(map[string]Symbol),
	}
	align := func(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

	addSym := func(s Symbol) error {
		if _, dup := img.Symbols[s.Name]; dup {
			return fmt.Errorf("link: duplicate symbol %q", s.Name)
		}
		img.Symbols[s.Name] = s
		return nil
	}

	// 1. Place kernel text at the vector base, then user text.
	pc := uint32(mach.VectorBase)
	for i := range funcs {
		if funcs[i].seg != SegKernel {
			continue
		}
		funcs[i].addr = pc
		sz := uint32(len(funcs[i].cf.Code)) * 4
		if err := addSym(Symbol{Name: funcs[i].cf.Name, Addr: pc, Size: sz, Func: true, Seg: SegKernel}); err != nil {
			return nil, err
		}
		pc += sz
	}
	ktextEnd := pc
	utextBase := align(pc, 4096)
	pc = utextBase
	for i := range funcs {
		if funcs[i].seg != SegUser {
			continue
		}
		funcs[i].addr = pc
		sz := uint32(len(funcs[i].cf.Code)) * 4
		if err := addSym(Symbol{Name: funcs[i].cf.Name, Addr: pc, Size: sz, Func: true, Seg: SegUser}); err != nil {
			return nil, err
		}
		pc += sz
	}
	utextEnd := pc
	img.TextEnd = utextEnd

	// 2. Place globals: kernel data after user text, then user data.
	placeGlobals := func(progs []*Program, base uint32, seg Seg) (uint32, error) {
		p := base
		for _, prog := range progs {
			for _, gl := range prog.Globals {
				a := gl.Align
				if a == 0 {
					a = 8
				}
				p = align(p, a)
				gl.Addr = p
				size := gl.Words*wb + gl.Bytes
				if size == 0 {
					size = wb // zero-sized globals still get a slot
				}
				if err := addSym(Symbol{Name: gl.Name, Addr: p, Size: size, Seg: seg}); err != nil {
					return 0, err
				}
				p += size
			}
		}
		return p, nil
	}
	kdataBase := align(utextEnd, 4096)
	kdataEnd, err := placeGlobals(kernel, kdataBase, SegKernel)
	if err != nil {
		return nil, err
	}
	udataBase := align(kdataEnd, 4096)
	udataEnd, err := placeGlobals(user, udataBase, SegUser)
	if err != nil {
		return nil, err
	}

	// 3. Heap and stacks.
	stacksEnd := cfg.RAMBytes
	stacksBase := stacksEnd - cfg.StackRegion
	heapBase := align(udataEnd, 4096)
	heapEnd := stacksBase
	if heapBase >= heapEnd {
		return nil, fmt.Errorf("link: no room for heap (data ends at %#x, stacks at %#x)", udataEnd, stacksBase)
	}
	img.HeapBase, img.HeapEnd = heapBase, heapEnd

	// 4. Regions (the hole below the vector base catches null derefs).
	// Empty segments (e.g. a user program without globals) are skipped.
	for _, r := range []mem.Region{
		{Name: "ktext", Start: mach.VectorBase, End: align(ktextEnd, 64), Perm: mem.PermR | mem.PermX},
		{Name: "utext", Start: utextBase, End: align(utextEnd, 64), Perm: mem.PermR | mem.PermX | mem.PermUser},
		{Name: "kdata", Start: kdataBase, End: align(kdataEnd, 64), Perm: mem.PermR | mem.PermW},
		{Name: "udata", Start: udataBase, End: align(udataEnd, 64), Perm: mem.PermR | mem.PermW | mem.PermUser},
		{Name: "heap", Start: heapBase, End: heapEnd, Perm: mem.PermR | mem.PermW | mem.PermUser},
		{Name: "stacks", Start: stacksBase, End: stacksEnd, Perm: mem.PermR | mem.PermW | mem.PermUser},
	} {
		if r.End > r.Start {
			img.Regions = append(img.Regions, r)
		}
	}

	// 5. Resolve relocations and encode text.
	resolve := func(name string) (Symbol, error) {
		s, ok := img.Symbols[name]
		if !ok {
			return Symbol{}, fmt.Errorf("link: undefined symbol %q", name)
		}
		return s, nil
	}
	ram := mem.New(cfg.RAMBytes)
	for _, r := range img.Regions {
		ram.Map(r)
	}
	var ktext, utext []byte
	for _, pf := range funcs {
		code := pf.cf.Code
		for _, rel := range pf.cf.Relocs {
			s, err := resolve(rel.Sym)
			if err != nil {
				return nil, fmt.Errorf("%v (needed by %s)", err, pf.cf.Name)
			}
			switch rel.Kind {
			case RelCall:
				from := pf.addr + uint32(rel.Idx)*4
				code[rel.Idx].Imm = (int64(s.Addr) - int64(from)) / 4
			case RelAddr:
				a := uint32(int64(s.Addr) + rel.Off)
				code[rel.Idx].Imm = int64(a & 0xffff)
				code[rel.Idx+1].Imm = int64(a >> 16)
			}
		}
		buf := make([]byte, len(code)*4)
		for i, ins := range code {
			w, err := codec.Encode(ins)
			if err != nil {
				return nil, fmt.Errorf("link: %s+%d (%s): %v", pf.cf.Name, i*4, isa.Disasm(feat, ins), err)
			}
			binary.LittleEndian.PutUint32(buf[i*4:], w)
		}
		if pf.seg == SegKernel {
			// Functions were placed contiguously in slice order.
			ktext = append(ktext, buf...)
		} else {
			utext = append(utext, buf...)
		}
	}
	ram.WriteBytes(mach.VectorBase, ktext)
	ram.WriteBytes(utextBase, utext)

	// 6. Global initializers. Only initialized words and bytes are written,
	// so a page of zero-initialized globals stays the shared zero page.
	for _, progs := range [][]*Program{kernel, user} {
		for _, prog := range progs {
			for _, gl := range prog.Globals {
				for i, v := range gl.InitWords {
					if wb == 4 {
						ram.WriteU32(gl.Addr+uint32(i)*4, uint32(v))
					} else {
						ram.WriteU64(gl.Addr+uint32(i)*8, v)
					}
				}
				ram.WriteBytes(gl.Addr+gl.Words*wb, gl.InitBytes)
			}
		}
	}
	img.ram = ram.Image()

	// 7. Entry and config symbols.
	start, err := resolve("__start")
	if err != nil {
		return nil, err
	}
	img.Entry = start.Addr
	// Thread 0 enters at the CRT wrapper when present so that a returning
	// main performs a clean exit syscall; bare images run main directly.
	entryName := "main"
	if _, ok := img.Symbols["__main_start"]; ok {
		entryName = "__main_start"
	}
	mainSym, err := resolve(entryName)
	if err != nil {
		return nil, err
	}
	cfgVals := map[string]uint64{
		"__cfg_user_entry":  uint64(mainSym.Addr),
		"__cfg_heap_base":   uint64(heapBase),
		"__cfg_heap_end":    uint64(heapEnd),
		"__cfg_stacks_base": uint64(stacksBase),
		"__cfg_stacks_end":  uint64(stacksEnd),
		"__cfg_stack_size":  stackBytes,
		"__cfg_tick":        cfg.TickCycles,
		"__cfg_ktext_end":   uint64(ktextEnd),
	}
	for _, name := range cfgSymbols {
		if _, ok := img.Symbols[name]; ok {
			if err := img.SetWord(name, 0, cfgVals[name]); err != nil {
				return nil, err
			}
		}
	}

	// 8. pc -> function index.
	for _, s := range img.Symbols {
		if s.Func {
			img.byAddr = append(img.byAddr, s)
		}
	}
	sort.Slice(img.byAddr, func(i, j int) bool { return img.byAddr[i].Addr < img.byAddr[j].Addr })
	return img, nil
}

// Clone returns a copy of the image that shares its payload: a SetWord on
// either replaces that image's snapshot with a patched one and leaves the
// other's as it was. Symbols, Regions and the pc index are shared as well:
// nothing writes them once Link returns.
func (img *Image) Clone() *Image {
	c := *img
	return &c
}

// SetWord patches word idx of a symbol inside the image payload (pre-boot
// configuration such as the thread count of a scenario). The image gets a
// snapshot of its own that copies only the page holding the word
// (mem.Snapshot.Patch).
func (img *Image) SetWord(sym string, idx uint32, v uint64) error {
	s, ok := img.Symbols[sym]
	if !ok {
		return fmt.Errorf("image: no symbol %q", sym)
	}
	wb := uint64(img.Feat.WordBytes)
	if (uint64(idx)+1)*wb > uint64(s.Size) {
		return fmt.Errorf("image: word %d of %q lies past its %d bytes", idx, sym, s.Size)
	}
	b := binary.LittleEndian.AppendUint64(nil, v)[:wb]
	img.ram = img.ram.Patch(s.Addr+idx*uint32(wb), b)
	return nil
}

// InstallTo loads the image into a fresh machine built for the RAM size it
// was linked for: RAM and the region table point at the image's snapshot
// (mem.Memory.Install), so the machine owns no page until its guest writes
// one, and every core is at the entry. Another RAM size panics, naming both.
func (img *Image) InstallTo(m *mach.Machine) {
	m.Mem.Install(img.ram)
	m.SetTextLimit(img.TextEnd)
	m.SetEntry(img.Entry)
}

// FuncAt maps a pc to the name of the containing function ("" if none).
func (img *Image) FuncAt(pc uint32) string {
	lo, hi := 0, len(img.byAddr)
	for lo < hi {
		mid := (lo + hi) / 2
		if img.byAddr[mid].Addr > pc {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == 0 {
		return ""
	}
	s := img.byAddr[lo-1]
	if pc < s.Addr+s.Size {
		return s.Name
	}
	return ""
}

// WordAt reads word idx of a global from a running machine.
func (img *Image) WordAt(m *mach.Machine, sym string, idx uint32) (uint64, error) {
	s, ok := img.Symbols[sym]
	if !ok {
		return 0, fmt.Errorf("image: no symbol %q", sym)
	}
	wb := uint32(img.Feat.WordBytes)
	if wb == 4 {
		return uint64(m.Mem.ReadU32(s.Addr + idx*4)), nil
	}
	return m.Mem.ReadU64(s.Addr + idx*8), nil
}

// F64At reads float64 element idx of a global from a running machine.
func (img *Image) F64At(m *mach.Machine, sym string, idx uint32) (uint64, error) {
	s, ok := img.Symbols[sym]
	if !ok {
		return 0, fmt.Errorf("image: no symbol %q", sym)
	}
	return m.Mem.ReadU64(s.Addr + idx*8), nil
}
