package serfi

// One testing.B entry per paper table and figure (deliverable d), plus the
// microbenchmarks go run ./bench has no twin for (bench/README.md, "Legacy →
// this benchmark", maps the ones it replaced). Campaign
// sizes are intentionally small so `go test -bench=.` finishes on a laptop;
// scale with SERFI_FAULTS (the full-size path is `serfi experiments -n`).

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"testing"

	"serfi/internal/campaign"
	"serfi/internal/exp"
	"serfi/internal/fault"
	"serfi/internal/fi"
	"serfi/internal/isa/armv7"
	"serfi/internal/isa/armv8"
	"serfi/internal/npb"
)

// benchFaults returns the per-scenario fault count for bench campaigns.
func benchFaults() int {
	if env := os.Getenv("SERFI_FAULTS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			return v
		}
	}
	return 4
}

// benchMatrix runs the catalog scenarios that pass keep through the campaign
// engine at the bench scale and indexes the rows for the formatters.
func benchMatrix(keep func(npb.Scenario) bool) (*exp.Matrix, error) {
	var scs []npb.Scenario
	for _, sc := range npb.Scenarios() {
		if keep(sc) {
			scs = append(scs, sc)
		}
	}
	eng := campaign.New(campaign.Faults(benchFaults()))
	results, err := eng.RunMatrix(context.Background(), eng.JobsFor(scs, 2018))
	if err != nil {
		return nil, err
	}
	return exp.NewMatrix(results), nil
}

// run executes fn once per b.N iteration, reporting nothing but wall time.
func runArtefact(b *testing.B, fn func() (string, error)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("artefact produced no output")
		}
	}
}

// BenchmarkTable1 regenerates the workload-summary table (golden runs plus
// small campaigns over all 130 scenarios).
func BenchmarkTable1(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(npb.Scenario) bool { return true })
		if err != nil {
			return "", err
		}
		return exp.Table1(m), nil
	})
}

// BenchmarkTable2 regenerates the IS Hang-vs-F*B-index table.
func BenchmarkTable2(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(sc npb.Scenario) bool {
			return sc.App == "IS" && sc.Mode != npb.Serial
		})
		if err != nil {
			return "", err
		}
		return exp.Table2(m), nil
	})
}

// BenchmarkTable3 regenerates the ARMv7 memory-transaction table.
func BenchmarkTable3(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(sc npb.Scenario) bool {
			return sc.ISA == "armv7" && sc.Mode == npb.MPI && (sc.App == "MG" || sc.App == "IS")
		})
		if err != nil {
			return "", err
		}
		return exp.Table3(m), nil
	})
}

// BenchmarkTable4 regenerates the ARMv8 memory-transaction table.
func BenchmarkTable4(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(sc npb.Scenario) bool {
			return sc.ISA == "armv8" && ((sc.Mode == npb.OMP && (sc.App == "LU" || sc.App == "SP")) ||
				(sc.Mode == npb.MPI && sc.App == "FT"))
		})
		if err != nil {
			return "", err
		}
		return exp.Table4(m), nil
	})
}

// BenchmarkFigure1 regenerates the intro trends figure (static dataset).
func BenchmarkFigure1(b *testing.B) {
	runArtefact(b, func() (string, error) { return exp.Figure1(), nil })
}

// BenchmarkFigure2 regenerates the ARMv7 outcome-distribution panels and
// the MPI-vs-OMP mismatch panel (all 65 ARMv7 scenarios).
func BenchmarkFigure2(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(sc npb.Scenario) bool {
			return sc.ISA == "armv7"
		})
		if err != nil {
			return "", err
		}
		return exp.Figure2(m), nil
	})
}

// BenchmarkFigure3 regenerates the ARMv8 panels (all 65 ARMv8 scenarios).
func BenchmarkFigure3(b *testing.B) {
	runArtefact(b, func() (string, error) {
		m, err := benchMatrix(func(sc npb.Scenario) bool {
			return sc.ISA == "armv8"
		})
		if err != nil {
			return "", err
		}
		return exp.Figure3(m), nil
	})
}

// BenchmarkInjection measures the cost of one full injection run (build
// machine, run to completion under the Hang budget, classify).
func BenchmarkInjection(b *testing.B) {
	sc := npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	g, err := fi.RunGolden(img, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := fi.NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	faults := fi.List(3, 64, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fi.Inject(img, cfg, g, faults[i%len(faults)])
	}
}

// BenchmarkScenarioBuild measures compile+link of a full software stack.
func BenchmarkScenarioBuild(b *testing.B) {
	for _, isaName := range []string{"armv7", "armv8"} {
		b.Run(isaName, func(b *testing.B) {
			sc := npb.Scenario{App: "CG", Mode: npb.OMP, ISA: isaName, Cores: 4}
			for i := 0; i < b.N; i++ {
				if _, _, err := npb.BuildScenario(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures the two instruction decoders.
func BenchmarkDecode(b *testing.B) {
	words := make([]uint32, 4096)
	for i := range words {
		words[i] = uint32(i*2654435761 + 12345)
	}
	b.Run("armv7", func(b *testing.B) {
		codec := armv7.New()
		for i := 0; i < b.N; i++ {
			_ = codec.Decode(words[i%len(words)])
		}
	})
	b.Run("armv8", func(b *testing.B) {
		codec := armv8.New()
		for i := 0; i < b.N; i++ {
			_ = codec.Decode(words[i%len(words)])
		}
	})
}

// BenchmarkCampaignThroughput reports faults/second for a small campaign
// (the paper's cluster-scheduling concern, §3.2.4).
func BenchmarkCampaignThroughput(b *testing.B) {
	sc := npb.Scenario{App: "IS", Mode: npb.OMP, ISA: "armv8", Cores: 2}
	n := benchFaults()
	eng := campaign.New(campaign.Faults(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := eng.RunMatrix(context.Background(), []campaign.ScenarioJob{{Scenario: sc, Seed: int64(i)}})
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].Counts.Total() != n {
			b.Fatal("missing classifications")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "faults/s")
}

// ExampleFigure1 pins the static artefact's head for documentation.
func ExampleFigure1() {
	out := exp.Figure1()
	fmt.Println(out[:36])
	// Output: Figure 1: processor evolution 1970-2
}
