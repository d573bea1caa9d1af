// Command xtrapulp partitions a graph with the XtraPuLP distributed
// partitioner (simulated MPI ranks) or any baseline method, reports
// the paper's quality metrics, and optionally writes the assignment.
//
// Usage:
//
//	xtrapulp -graph web.txt -parts 16 -ranks 4 [-method xtrapulp] [-out parts.txt]
//	xtrapulp -gen rmat -scale 18 -deg 16 -parts 16 -ranks 8
//	reprorun -n 4 -- xtrapulp -transport env -gen rmat -scale 12 -parts 8
//
// Graph files are edge lists (text "u v" lines, or .bin binary); the
// -gen families mirror the paper's synthetic inputs.
//
// -transport selects the rank substrate: "proc" (default) runs the
// simulated in-process world, "env" makes this process one rank of an
// externally launched socket world — it reads the REPRO_* rendezvous
// environment (set by cmd/reprorun or any MPI-style launcher),
// partitions collectively with XtraPuLP (the only -method it accepts),
// and only rank 0 prints and writes output. Partitions are
// bit-identical across transports at a fixed seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/partition"
)

func main() {
	graphPath := flag.String("graph", "", "edge-list file to partition (.txt or .bin)")
	genName := flag.String("gen", "", "synthetic family: rmat|er|hd|mesh|ws|powerlaw")
	scale := flag.Int("scale", 16, "log2 vertex count for -gen")
	deg := flag.Int64("deg", 16, "average degree for -gen")
	parts := flag.Int("parts", 16, "number of parts")
	ranks := flag.Int("ranks", 4, "simulated MPI ranks")
	threads := flag.Int("threads", 1, "threads per rank (0 = one per core; partitions are reproducible only at a fixed count)")
	method := flag.String("method", repro.MethodXtraPuLP, fmt.Sprintf("partitioner: %v", repro.Methods()))
	seed := flag.Uint64("seed", 1, "random seed")
	single := flag.Bool("single", false, "single-constraint single-objective mode")
	async := flag.Bool("async", false, "piggyback the per-iteration size settles on the boundary messages instead of an Allreduce")
	blockDist := flag.Bool("blockdist", false, "use block vertex distribution instead of random")
	out := flag.String("out", "", "write per-vertex part ids to this file")
	transport := flag.String("transport", "proc", "rank substrate: proc (in-process) | env (one rank of a socket world, REPRO_* env)")
	flag.Parse()

	if *transport == "env" {
		if *method != repro.MethodXtraPuLP {
			fmt.Fprintf(os.Stderr, "xtrapulp: -transport env runs only -method %s, not %q\n", repro.MethodXtraPuLP, *method)
			os.Exit(2)
		}
		runEnvRank(*graphPath, *genName, *scale, *deg, *parts, *threads, *seed,
			*single, *async, *blockDist, *out)
		return
	}
	if *transport != "proc" {
		fmt.Fprintf(os.Stderr, "xtrapulp: unknown transport %q (proc|env)\n", *transport)
		os.Exit(2)
	}

	gn, err := generatorFor(*graphPath, *genName, *scale, *deg, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	g, err := gn.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("graph %s: n=%d m=%d davg=%.1f dmax=%d\n",
		gn.Name, g.N, g.NumEdges(), g.AvgDegree(), g.MaxDegree())

	start := time.Now()
	var assignment []int32
	if *method == repro.MethodXtraPuLP {
		// Partition from the generator, not the built graph, so the
		// edge-chunk order — and hence the result — is bit-identical
		// to a -transport env run at the same seed.
		var rep repro.Report
		assignment, rep, err = repro.XtraPuLPGen(gn, repro.Config{
			Parts: *parts, Ranks: *ranks, ThreadsPerRank: *threads,
			RandomDist: !*blockDist, SingleConstraint: *single, Seed: *seed,
			AsyncExchange: *async,
		})
		if err == nil {
			fmt.Printf("stages: init=%.3fs (%d rounds) vert=%.3fs edge=%.3fs comm=%d elems (exchange %d, %d allreduces)\n",
				rep.InitTime.Seconds(), rep.InitIters, rep.VertTime.Seconds(),
				rep.EdgeTime.Seconds(), rep.CommVolume, rep.ExchangeVolume, rep.ReductionOps)
		}
	} else {
		assignment, err = repro.Partition(*method, g, *parts, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	q := repro.Evaluate(g, assignment, *parts)
	fmt.Printf("method=%s parts=%d time=%.3fs\n", *method, *parts, elapsed.Seconds())
	fmt.Printf("edge cut ratio      %.4f  (%d of %d edges)\n", q.EdgeCutRatio, q.CutEdges, g.NumEdges())
	fmt.Printf("scaled max cut      %.4f\n", q.ScaledMaxCutRatio)
	fmt.Printf("vertex imbalance    %.4f\n", q.VertexImbalance)
	fmt.Printf("edge imbalance      %.4f\n", q.EdgeImbalance)

	if *out != "" {
		if err := partition.SaveParts(*out, assignment); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// runEnvRank runs this process as one rank of an externally launched
// socket world: rendezvous from the REPRO_* environment, partition
// with XtraPuLPComm, report from rank 0.
func runEnvRank(graphPath, genName string, scale int, deg int64, parts, threads int, seed uint64,
	single, async, blockDist bool, out string) {
	gn, err := generatorFor(graphPath, genName, scale, deg, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c, closeComm, err := repro.SocketComm(threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtrapulp:", err)
		os.Exit(1)
	}
	start := time.Now()
	assignment, rep, err := repro.XtraPuLPComm(c, gn, repro.Config{
		Parts: parts, RandomDist: !blockDist, SingleConstraint: single,
		Seed: seed, AsyncExchange: async,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if c.Rank() == 0 {
		fmt.Printf("graph %s: n=%d ranks=%d (socket world)\n", gn.Name, gn.N, c.Size())
		fmt.Printf("stages: init=%.3fs (%d rounds) vert=%.3fs edge=%.3fs comm=%d elems (exchange %d, %d allreduces)\n",
			rep.InitTime.Seconds(), rep.InitIters, rep.VertTime.Seconds(),
			rep.EdgeTime.Seconds(), rep.CommVolume, rep.ExchangeVolume, rep.ReductionOps)
		q := rep.Quality
		fmt.Printf("method=%s parts=%d time=%.3fs\n", repro.MethodXtraPuLP, parts, time.Since(start).Seconds())
		fmt.Printf("edge cut ratio      %.4f  (%d edges cut)\n", q.EdgeCutRatio, q.CutEdges)
		fmt.Printf("scaled max cut      %.4f\n", q.ScaledMaxCutRatio)
		fmt.Printf("vertex imbalance    %.4f\n", q.VertexImbalance)
		fmt.Printf("edge imbalance      %.4f\n", q.EdgeImbalance)
		if out != "" {
			if err := partition.SaveParts(out, assignment); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", out)
		}
	}
	//lint:ignore errcheck the run is complete; a teardown error cannot change the result
	closeComm()
}

// generatorFor builds the distributed run's edge-chunk generator: a
// synthetic family, or a loaded edge-list file wrapped as a static
// generator.
func generatorFor(path, genName string, scale int, deg int64, seed uint64) (*repro.Generator, error) {
	if path != "" {
		g, err := repro.LoadGraph(path)
		if err != nil {
			return nil, err
		}
		return gen.FromEdgeList(path, g.N, g.Edges()), nil
	}
	return syntheticGenerator(genName, scale, deg, seed)
}

// syntheticGenerator maps a -gen family name to its generator.
func syntheticGenerator(genName string, scale int, deg int64, seed uint64) (*repro.Generator, error) {
	n := int64(1) << uint(scale)
	switch genName {
	case "rmat":
		return repro.RMAT(scale, deg, seed), nil
	case "er":
		return repro.RandER(n, n*deg/2, seed), nil
	case "hd":
		return repro.RandHD(n, deg, seed), nil
	case "mesh":
		side := int64(1)
		for side*side*side < n {
			side++
		}
		return repro.Mesh3D(side, side, side), nil
	case "ws":
		return repro.SmallWorld(n, deg, 0.1, seed), nil
	case "powerlaw":
		return repro.PowerLaw(n, n*deg/2, 2.2, seed), nil
	case "":
		return nil, fmt.Errorf("xtrapulp: pass -graph FILE or -gen FAMILY")
	default:
		return nil, fmt.Errorf("xtrapulp: unknown generator %q", genName)
	}
}
