// Package repro is a from-scratch Go reproduction of "Partitioning
// Trillion-edge Graphs in Minutes" (Slota, Rajamanickam, Devine,
// Madduri; IPDPS 2017): the XtraPuLP distributed-memory label
// propagation partitioner, every baseline it is evaluated against
// (PuLP, a METIS-like and a KaHIP-like multilevel partitioner, and the
// block/random strategies), the distributed substrate it runs on (a
// simulated MPI communicator with goroutine ranks, a 1D distributed
// CSR with ghost vertices), and the paper's downstream applications
// (six distributed graph analytics and 1D/2D SpMV).
//
// This file is the public facade: graph generation, one-call
// partitioning with any of the paper's methods, quality evaluation,
// and distributed runs. The building blocks live under internal/.
//
//	g := repro.RMAT(16, 16, 1).MustBuild()
//	parts, rep, err := repro.XtraPuLP(g, repro.Config{Parts: 16, Ranks: 4})
//	q := repro.Evaluate(g, parts, 16)
package repro

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/multilevel"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/pulp"
)

// Graph is the shared-memory CSR graph type.
type Graph = graph.Graph

// Generator lazily produces a seeded synthetic graph; see the gen
// package for the available families.
type Generator = gen.Generator

// Quality bundles the paper's partition quality metrics.
type Quality = partition.Quality

// Graph generators for every class in the paper's Table I.
var (
	// RMAT builds Graph500 R-MAT graphs (skewed, small-world).
	RMAT = gen.RMAT
	// RandER builds Erdős–Rényi G(n, m) graphs.
	RandER = gen.ER
	// RandHD builds the paper's high-diameter random graphs.
	RandHD = gen.RandHD
	// Mesh3D builds regular 3D grid meshes (InternalMesh stand-ins).
	Mesh3D = gen.Grid3D
	// SmallWorld builds Watts–Strogatz rings.
	SmallWorld = gen.WattsStrogatz
	// PowerLaw builds Chung–Lu power-law graphs (social/web proxies).
	PowerLaw = gen.ChungLu
)

// LoadGraph reads an edge-list file (.bin binary or text).
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// SaveGraph writes an edge-list file (.bin binary or text).
func SaveGraph(path string, g *Graph) error { return graph.SaveFile(path, g) }

// Evaluate computes the paper's quality metrics for a partition.
func Evaluate(g *Graph, parts []int32, p int) Quality {
	return partition.Evaluate(g, parts, p)
}

// Config drives a distributed XtraPuLP run.
type Config struct {
	// Parts is the number of parts to compute (required).
	Parts int
	// Ranks is the number of simulated MPI ranks; 0 selects the
	// default 1, and negative counts are rejected.
	Ranks int
	// ThreadsPerRank is the intra-rank thread budget. The repo-wide
	// rule: 0 (or negative) selects one worker per core
	// (par.DefaultThreads), an explicit 1 runs serial. The partitioner's
	// propagation RNG streams are keyed by thread id, so the partition
	// depends on the thread count — deterministic for a fixed count,
	// different across counts. Pin an explicit value when partitions
	// must reproduce across machines.
	ThreadsPerRank int
	// RandomDist selects the hashed (random) vertex distribution
	// instead of block; the paper observes random scales better for
	// irregular graphs.
	RandomDist bool
	// SingleConstraint solves the single-constraint single-objective
	// problem (§V.C comparison mode).
	SingleConstraint bool
	// AsyncExchange selects how iterations settle. In both modes
	// changed labels travel as packed single-element updates over
	// nonblocking point-to-point messages, drained concurrently with
	// local propagation, one exchange and one settle per iteration.
	// Off, every iteration settles its per-part size deltas with an
	// exact Allreduce (the paper's bulk-synchronous schedule). On, the
	// size tallies piggyback on the same messages, so iterations need
	// no global Allreduce barrier when every rank neighbors every
	// other (otherwise each iteration settles by that same exact
	// Allreduce). The final partition and the messages posted are
	// identical for fixed seeds; only the settles differ. The
	// analytics and SpMV paths select their mode through
	// AnalyticsConfig.AsyncExchange and SpMVConfig.AsyncExchange.
	AsyncExchange bool
	// PipeDepth sets the exchange engine's pipeline depth — how many
	// rounds of boundary messages may be in flight per exchanger at
	// once (0 = default 2; values 1 and below rejected). The
	// partitioner's own schedule never pipelines past 2, but the knob
	// travels with the graph, so analytics run on the same shards
	// inherit it. See AnalyticsConfig.PipeDepth
	// for the depth/2-wave HC engine it enables.
	PipeDepth int
	// Init selects the initialization strategy; zero value is the
	// paper's BFS hybrid.
	Init core.InitStrategy
	// OverrideXY, when true, replaces the multiplier schedule's X and
	// Y parameters with the Config values (needed to sweep X=Y=0).
	OverrideXY bool
	// X, Y override the multiplier schedule when OverrideXY is set or
	// either value is nonzero.
	X, Y float64
	// Seed fixes all randomness (default 1).
	Seed uint64
}

// Report describes one distributed partitioning run.
type Report struct {
	// Stage times from rank 0.
	InitTime, VertTime, EdgeTime, TotalTime time.Duration
	// InitIters is the number of initialization propagation rounds.
	InitIters int
	// Quality holds the collectively computed final metrics.
	Quality Quality
	// CommVolume is the total element volume all ranks exchanged,
	// including distributed graph construction.
	CommVolume int64
	// ExchangeVolume is the element volume sent during the
	// partitioning stages only — the number the sync-vs-async
	// exchange comparison is about.
	ExchangeVolume int64
	// ReductionOps is the number of Allreduce operations the
	// partitioning stages performed. Synchronous runs pay one per inner
	// iteration. Async runs on complete rank neighborhoods piggyback
	// the tallies on the boundary messages and pay none between stage
	// recounts; on any other topology they pay sync's count.
	ReductionOps int64
	// SendOps is the number of point-to-point sends rank 0 posted
	// during the partitioning stages; both exchange modes post the
	// same sends.
	SendOps int64
	// Candidates is the number of vertices whose neighborhood the
	// balance and refine sweeps scored, summed over all ranks. The
	// refine sweeps skip, uncounted, a vertex last found locally stable
	// whose neighbors have not changed part since: its scan could not
	// move it.
	Candidates int64
	// PartScans is the number of (candidate, part) pairs those sweeps
	// examined, summed over all ranks: one per part a candidate's
	// neighborhood touches (one for a vertex its own part wins before
	// any count is stored), plus p per full fallback scan, plus one per
	// node of the balance stages' fallback summary that a round-start
	// rebuild or a moved part's re-scoring recomputes.
	PartScans int64
}

// XtraPuLP partitions g with the paper's distributed partitioner on
// cfg.Ranks simulated MPI ranks and returns the global part assignment
// indexed by vertex id.
func XtraPuLP(g *Graph, cfg Config) ([]int32, Report, error) {
	gen := staticGenerator(g)
	return XtraPuLPGen(gen, cfg)
}

// XtraPuLPGen is XtraPuLP driven by a generator: each rank generates
// only its chunk of the edge list, so no rank ever materializes the
// whole graph — the paper's actual usage mode at scale.
func XtraPuLPGen(g *Generator, cfg Config) ([]int32, Report, error) {
	ranks := cfg.Ranks
	if ranks == 0 {
		ranks = 1
	}
	if err := validateRanks(ranks); err != nil {
		return nil, Report{}, err
	}
	threads := par.ResolveThreads(cfg.ThreadsPerRank)
	var parts []int32
	var rep Report
	var runErr error
	mpi.RunThreads(ranks, threads, func(c *mpi.Comm) {
		p, r, err := XtraPuLPComm(c, g, cfg)
		if c.Rank() == 0 {
			parts, rep, runErr = p, r, err
		}
	})
	if runErr != nil {
		return nil, Report{}, runErr
	}
	return parts, rep, nil
}

// XtraPuLPComm is the per-rank body of XtraPuLPGen: it runs this
// rank's share of the distributed partitioner on an existing
// communicator — the entry point for externally formed worlds, where
// each OS process builds its Comm over a socket transport
// (mpi.DialSocket + mpi.NewComm) and calls this directly. Config.Ranks
// and Config.ThreadsPerRank are ignored; the communicator defines
// both. Every rank returns the full gathered partition and its own
// Report (timings are the local rank's; quality and volumes are
// collective and identical everywhere).
func XtraPuLPComm(c *mpi.Comm, g *Generator, cfg Config) ([]int32, Report, error) {
	if cfg.Parts < 1 {
		return nil, Report{}, fmt.Errorf("repro: Config.Parts = %d", cfg.Parts)
	}
	if err := validatePipeDepth(cfg.PipeDepth); err != nil {
		return nil, Report{}, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	opt := core.DefaultOptions(cfg.Parts)
	opt.SingleConstraint = cfg.SingleConstraint
	opt.Init = cfg.Init
	opt.Seed = seed
	if cfg.AsyncExchange {
		opt.Exchange = core.ExchangeAsyncDelta
	}
	if cfg.OverrideXY || cfg.X != 0 || cfg.Y != 0 {
		opt.X, opt.Y = cfg.X, cfg.Y
	}

	var dist dgraph.Distribution = dgraph.BlockDist{N: g.N, P: c.Size()}
	if cfg.RandomDist {
		dist = dgraph.HashDist{P: c.Size(), Seed: seed}
	}
	dg, err := dgraph.FromEdgeChunks(c, g.N, g.EdgesChunk(c.Rank(), c.Size()), dist)
	if err != nil {
		// Construction errors are deterministic and local-input
		// driven: every rank fails identically, so no collective is
		// left half-entered.
		return nil, Report{}, err
	}
	dg.SetPipeDepth(cfg.PipeDepth) // before the exchanger exists
	local, r, err := core.Partition(dg, opt)
	if err != nil {
		// Partition errors are symmetric across ranks and happen
		// between rounds, so the drainer teardown is safe here.
		dg.Close()
		return nil, Report{}, err
	}
	full := dg.GatherGlobal(local[:dg.NLocal])
	vol := mpi.AllreduceScalar(c, c.Stats().ElemsSent, mpi.Sum)
	// Normal-path teardown of the async exchanger's drainer (not
	// deferred: after a panic the poison + finalizer backstop
	// handle it — see Graph.Close).
	dg.Close()
	rep := Report{
		InitTime: r.InitTime, VertTime: r.VertTime,
		EdgeTime: r.EdgeTime, TotalTime: r.TotalTime,
		InitIters: r.InitIters, Quality: r.Quality,
		CommVolume: vol, ExchangeVolume: r.ExchangeVolume,
		ReductionOps: r.ReductionOps, SendOps: r.SendOps,
		Candidates: r.Candidates, PartScans: r.PartScans,
	}
	return full, rep, nil
}

// SocketComm joins this process to an externally launched socket
// world: it reads the REPRO_* rendezvous environment (set by
// cmd/reprorun or any MPI-style launcher; see mpi.SocketConfigFromEnv
// for the variables and their defaults), dials every peer with the
// retrying rendezvous, and returns this rank's communicator plus a
// closer that tears the transport down. threads is the intra-rank
// thread budget; 0 (or negative) defers to the REPRO_THREADS
// environment variable when it holds a positive integer (so a launcher
// can set the budget for every worker it spawns), and otherwise to one
// worker per core (par.DefaultThreads). The communicator is ready for
// XtraPuLPComm and the other external-world entry points; callers that
// print or write output should do so from rank 0 only
// (Comm.Rank() == 0).
func SocketComm(threads int) (*mpi.Comm, func() error, error) {
	cfg, err := mpi.SocketConfigFromEnv()
	if err != nil {
		return nil, nil, err
	}
	tr, err := mpi.DialSocket(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("repro: rendezvous: %w", err)
	}
	if threads < 1 {
		if env, err := strconv.Atoi(os.Getenv("REPRO_THREADS")); err == nil && env > 0 {
			threads = env
		} else {
			threads = par.DefaultThreads()
		}
	}
	return mpi.NewComm(tr, threads), tr.Close, nil
}

// staticGenerator wraps an in-memory graph as a Generator so the
// distributed builders can chunk it.
func staticGenerator(g *Graph) *Generator {
	edges := g.Edges()
	return gen.FromEdgeList("static", g.N, edges)
}

// Method names accepted by Partition.
const (
	MethodXtraPuLP    = "xtrapulp"
	MethodPuLP        = "pulp"
	MethodMetisLike   = "metis"
	MethodKahipLike   = "kahip"
	MethodRandom      = "random"
	MethodVertexBlock = "vertexblock"
	MethodEdgeBlock   = "edgeblock"
)

// Methods lists every partitioning method name accepted by Partition,
// in the order the paper introduces them.
func Methods() []string {
	return []string{
		MethodXtraPuLP, MethodPuLP, MethodMetisLike, MethodKahipLike,
		MethodRandom, MethodVertexBlock, MethodEdgeBlock,
	}
}

// Partition computes a p-way partition of g with the named method
// using that method's defaults (XtraPuLP runs on 4 simulated ranks).
func Partition(method string, g *Graph, p int, seed uint64) ([]int32, error) {
	switch method {
	case MethodXtraPuLP:
		// ThreadsPerRank pinned: the method defaults promise the same
		// partition for the same seed on every machine, and the
		// propagation RNG streams are thread-id keyed.
		parts, _, err := XtraPuLP(g, Config{Parts: p, Ranks: 4, ThreadsPerRank: 1, RandomDist: true, Seed: seed})
		return parts, err
	case MethodPuLP:
		opt := pulp.DefaultOptions(p)
		opt.Threads = 1 // method defaults promise machine-independent partitions
		opt.Seed = seed
		parts, _, err := pulp.Partition(g, opt)
		return parts, err
	case MethodMetisLike:
		opt := multilevel.MetisLike(p)
		opt.Seed = seed
		parts, _, err := multilevel.Partition(g, opt)
		return parts, err
	case MethodKahipLike:
		opt := multilevel.KahipLike(p)
		opt.Seed = seed
		parts, _, err := multilevel.Partition(g, opt)
		return parts, err
	case MethodRandom:
		return partition.Random(g, p, seed), nil
	case MethodVertexBlock:
		return partition.VertexBlock(g, p), nil
	case MethodEdgeBlock:
		return partition.EdgeBlock(g, p), nil
	default:
		return nil, fmt.Errorf("repro: unknown method %q (have %v)", method, Methods())
	}
}
