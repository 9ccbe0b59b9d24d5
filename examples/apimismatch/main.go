// Parallelization-API mismatch: the Figures 2c/3c metric. The same CG
// benchmark runs under the OpenMP-like and MPI-like runtimes on a quad-core
// model; the example prints both outcome distributions and their mismatch
// (sum of absolute per-class differences).
//
//	go run ./examples/apimismatch
package main

import (
	"context"
	"fmt"
	"log"

	"serfi/internal/campaign"
	"serfi/internal/fi"
	"serfi/internal/npb"
)

func main() {
	const faults = 40
	results, err := campaign.New(campaign.Faults(faults)).RunMatrix(context.Background(), []campaign.ScenarioJob{
		{Scenario: npb.Scenario{App: "CG", Mode: npb.OMP, ISA: "armv8", Cores: 4}, Seed: 23},
		{Scenario: npb.Scenario{App: "CG", Mode: npb.MPI, ISA: "armv8", Cores: 4}, Seed: 23},
	})
	if err != nil {
		log.Fatal(err)
	}
	omp, mpi := results[0], results[1]

	fmt.Println("CG on cortex-a72 x4, 40 faults per variant")
	fmt.Printf("%-6s %s\n", "OMP", omp.Counts)
	fmt.Printf("%-6s %s\n", "MPI", mpi.Counts)
	fmt.Println()
	fmt.Printf("mismatch (fig. 2c/3c metric): %.1f%%\n", fi.Mismatch(omp.Counts, mpi.Counts))
	fmt.Printf("masking: OMP %.1f%% vs MPI %.1f%%\n",
		100*omp.Counts.Masking(), 100*mpi.Counts.Masking())
	fmt.Println()
	fmt.Println("structure behind the difference (golden-run features):")
	fmt.Printf("  per-core imbalance   OMP %.1f%%  MPI %.1f%%  (paper: OMP up to 16%%, MPI ~4%%)\n",
		omp.Features.CoreImbalance, mpi.Features.CoreImbalance)
	fmt.Printf("  API calls            OMP %d  MPI %d\n", omp.APICalls, mpi.APICalls)
	fmt.Printf("  kernel share         OMP %.1f%%  MPI %.1f%%\n",
		omp.Features.KernelPct, mpi.Features.KernelPct)
}
