package serfi

// One sub-benchmark per artefact of exp.Artefacts (deliverable d), plus the
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
	"serfi/internal/soc"
	"serfi/internal/stack"
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

// benchMatrix runs what `serfi experiments -run` runs for a (its scenarios,
// under every fault model or with propagation tracing where it asks) at the
// bench scale and indexes the rows; an artefact without scenarios gets nil.
func benchMatrix(a exp.Artefact) (*exp.Matrix, error) {
	if len(a.Scenarios) == 0 {
		return nil, nil
	}
	opts := []campaign.Option{campaign.Faults(benchFaults())}
	if a.AllDomains {
		opts = append(opts, campaign.Models(fault.Models()...))
	}
	if a.Prop {
		opts = append(opts, campaign.TraceProp())
	}
	eng := campaign.New(opts...)
	results, err := eng.RunMatrix(context.Background(), eng.JobsFor(a.Scenarios, 2018))
	if err != nil {
		return nil, err
	}
	return exp.NewMatrix(results), nil
}

// BenchmarkArtefacts regenerates every artefact of the catalogue, one
// sub-benchmark each: its campaigns plus its formatting.
func BenchmarkArtefacts(b *testing.B) {
	for _, a := range exp.Artefacts {
		b.Run(a.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := benchMatrix(a)
				if err != nil {
					b.Fatal(err)
				}
				if a.Format(m) == "" {
					b.Fatal("artefact produced no output")
				}
			}
		})
	}
}

// BenchmarkInjection measures the cost of one full injection run (build
// machine, run from reset to completion under the Hang budget, classify):
// a set without checkpoints.
func BenchmarkInjection(b *testing.B) {
	sc := npb.Scenario{App: "EP", Mode: npb.Serial, ISA: "armv8", Cores: 1}
	img, cfg, err := npb.BuildScenario(sc)
	if err != nil {
		b.Fatal(err)
	}
	g, err := fi.RunGoldenContext(context.Background(), img, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := fi.NewDomain(fault.Reg, img, cfg, g)
	if err != nil {
		b.Fatal(err)
	}
	faults := fi.List(3, 64, d)
	cs, err := fi.BuildCheckpointsOpt(context.Background(), img, cfg, g, fi.CheckpointOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = cs.InjectPointContext(context.Background(), d, g, faults[i%len(faults)])
	}
}

// BenchmarkScenarioBuild measures a cold compile+link of a full software
// stack (stack.Build, which npb.BuildScenario runs once per app and ISA) and,
// under memo, npb.BuildScenario's per-scenario copy of the linked image.
func BenchmarkScenarioBuild(b *testing.B) {
	isas := []string{"armv7", "armv8"}
	for _, isaName := range isas {
		b.Run(isaName, func(b *testing.B) {
			cfg, err := soc.Config(isaName, 4)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := stack.Build(cfg, npb.BuildCG(), npb.BuildCommon()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("memo", func(b *testing.B) {
		for _, isaName := range isas {
			b.Run(isaName, func(b *testing.B) {
				sc := npb.Scenario{App: "CG", Mode: npb.OMP, ISA: isaName, Cores: 4}
				for i := 0; i < b.N; i++ {
					if _, _, err := npb.BuildScenario(sc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
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
