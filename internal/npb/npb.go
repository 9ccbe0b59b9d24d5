// Package npb implements the miniaturized NAS-Parallel-Benchmark-like suite
// evaluated by the paper: BT, CG, DC, DT, EP, FT, IS, LU, MG, SP and UA,
// each in Serial, OpenMP-like and MPI-like variants where the original suite
// has them. Problem sizes are scaled to the simulator (the paper's "class"
// concept); computational archetypes — structured grids, conjugate
// gradients, FFTs, integer sorting, data cubes, communication graphs,
// irregular meshes — are preserved. See DESIGN.md §2 ("Documented
// substitutions") for the EP Gaussian tally and DC/DT/UA miniatures.
package npb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"serfi/internal/cc"
	"serfi/internal/mach"
	"serfi/internal/soc"
	"serfi/internal/stack"
)

// Mode selects the programming model of a scenario.
type Mode int

// Programming models.
const (
	Serial Mode = iota
	OMP
	MPI
)

func (m Mode) String() string {
	switch m {
	case Serial:
		return "SER"
	case OMP:
		return "OMP"
	case MPI:
		return "MPI"
	}
	return "?"
}

// App describes one benchmark.
type App struct {
	Name      string
	Build     func() *cc.Program
	HasSerial bool
	HasOMP    bool
	HasMPI    bool
	// MPISquare marks apps whose MPI decomposition needs a square rank
	// count (the paper notes BT and SP lack MPI dual-core variants).
	MPISquare bool
}

// Apps returns the suite in display order.
func Apps() []App {
	return []App{
		{Name: "BT", Build: BuildBT, HasSerial: true, HasOMP: true, HasMPI: true, MPISquare: true},
		{Name: "CG", Build: BuildCG, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "DC", Build: BuildDC, HasSerial: true, HasOMP: true},
		{Name: "DT", Build: BuildDT, HasMPI: true},
		{Name: "EP", Build: BuildEP, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "FT", Build: BuildFT, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "IS", Build: BuildIS, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "LU", Build: BuildLU, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "MG", Build: BuildMG, HasSerial: true, HasOMP: true, HasMPI: true},
		{Name: "SP", Build: BuildSP, HasSerial: true, HasOMP: true, HasMPI: true, MPISquare: true},
		{Name: "UA", Build: BuildUA, HasSerial: true, HasOMP: true},
	}
}

// AppByName looks up one benchmark.
func AppByName(name string) (App, bool) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// Scenario is one fault-injection scenario: an application variant on a
// processor model.
type Scenario struct {
	App   string
	Mode  Mode
	ISA   string // "armv7" or "armv8"
	Cores int    // 1, 2 or 4; Serial always 1
}

// ID renders like "armv7/IS/MPI-4".
func (s Scenario) ID() string {
	return fmt.Sprintf("%s/%s/%s-%d", s.ISA, s.App, s.Mode, s.Cores)
}

// ParseID is the inverse of Scenario.ID: it parses "armv7/IS/MPI-4" into a
// Scenario (used by the CLI and by campaign-database resume).
func ParseID(s string) (Scenario, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 3 {
		return Scenario{}, fmt.Errorf("scenario %q: want isa/APP/MODE-cores", s)
	}
	mc := strings.Split(parts[2], "-")
	if len(mc) != 2 {
		return Scenario{}, fmt.Errorf("scenario %q: want MODE-cores", s)
	}
	cores, err := strconv.Atoi(mc[1])
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario %q: bad core count: %v", s, err)
	}
	var mode Mode
	switch mc[0] {
	case "SER":
		mode = Serial
	case "OMP":
		mode = OMP
	case "MPI":
		mode = MPI
	default:
		return Scenario{}, fmt.Errorf("scenario %q: unknown mode %q", s, mc[0])
	}
	return Scenario{App: parts[1], Mode: mode, ISA: parts[0], Cores: cores}, nil
}

// Scenarios enumerates the paper's 130 fault-injection scenarios: per ISA,
// 10 serial (no DT), 10 OMP x {1,2,4} cores, 9 MPI x {1,2,4} minus the
// square-decomposition gaps (BT, SP at 2 ranks) = 65.
func Scenarios() []Scenario {
	var out []Scenario
	for _, isaName := range []string{"armv7", "armv8"} {
		for _, a := range Apps() {
			if a.HasSerial {
				out = append(out, Scenario{a.Name, Serial, isaName, 1})
			}
		}
		for _, a := range Apps() {
			if a.HasOMP {
				for _, c := range []int{1, 2, 4} {
					out = append(out, Scenario{a.Name, OMP, isaName, c})
				}
			}
		}
		for _, a := range Apps() {
			if a.HasMPI {
				for _, c := range []int{1, 2, 4} {
					if a.MPISquare && c == 2 {
						continue
					}
					out = append(out, Scenario{a.Name, MPI, isaName, c})
				}
			}
		}
	}
	return out
}

// catalogIndex maps each catalog scenario to its position in Scenarios().
var catalogIndex = sync.OnceValue(func() map[Scenario]int {
	idx := make(map[Scenario]int)
	for i, sc := range Scenarios() {
		idx[sc] = i
	}
	return idx
})

// Index returns sc's position in Scenarios() — the offset a campaign adds to
// its base seed — and false for a scenario outside the catalog.
func Index(sc Scenario) (int, bool) {
	i, ok := catalogIndex()[sc]
	return i, ok
}

// imageKey is what a scenario's linked image depends on: the app, the ISA
// and the two link parameters soc.Config fixes per ISA. Programming model
// and thread count are words BuildScenario patches into a copy.
type imageKey struct {
	app, isa string
	ram      uint32
	tick     uint64
}

// images holds one link per imageKey for the life of the process (at most
// 22 images of ~180 KB): imageKey -> func() (*cc.Image, error).
var images sync.Map

// linked returns the image stack.Build links for key, linking it on the
// first call. Callers must not modify it.
func linked(key imageKey, app App, cfg mach.Config) (*cc.Image, error) {
	build, ok := images.Load(key)
	if !ok {
		build, _ = images.LoadOrStore(key, sync.OnceValues(func() (*cc.Image, error) {
			return stack.Build(cfg, app.Build(), BuildCommon())
		}))
	}
	return build.(func() (*cc.Image, error))()
}

// BuildScenario returns the scenario's image and machine configuration. The
// image is a copy of the one linked per app and ISA (once per process) with
// the mode and thread/rank counts patched in; the caller owns it.
func BuildScenario(sc Scenario) (*cc.Image, mach.Config, error) {
	app, ok := AppByName(sc.App)
	if !ok {
		return nil, mach.Config{}, fmt.Errorf("npb: unknown app %q", sc.App)
	}
	cfg, err := soc.Config(sc.ISA, sc.Cores)
	if err != nil {
		return nil, mach.Config{}, err
	}
	base, err := linked(imageKey{sc.App, sc.ISA, cfg.RAMBytes, cfg.Timing.TickCycles}, app, cfg)
	if err != nil {
		return nil, mach.Config{}, fmt.Errorf("npb: %s: %w", sc.ID(), err)
	}
	img := base.Clone()
	if err := img.SetWord("__npb_mode", 0, uint64(sc.Mode)); err != nil {
		return nil, mach.Config{}, err
	}
	switch sc.Mode {
	case OMP:
		err = img.SetWord("__omp_nthreads", 0, uint64(sc.Cores))
	case MPI:
		err = img.SetWord("__mpi_nranks", 0, uint64(sc.Cores))
	}
	if err != nil {
		return nil, mach.Config{}, err
	}
	return img, cfg, nil
}
