// Package fixture exercises the exlifecycle analyzer: constructed
// exchangers and constructed graphs must reach Close. It is
// type-checked by the analyzer tests, never run.
package fixture

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// leak constructs an exchanger and forgets it: the drainer goroutine
// and its posted rounds leak.
func leak(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger() // want "never closed"
	ex.Begin()
	_ = ex.Flush(nil)
}

// graphLeak exchanges on a graph it built — which spins up the graph's
// drainer — and never closes it.
func graphLeak(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist) // want "graph g is never closed"
	if err != nil {
		return
	}
	g.ExchangeInt64(nil, nil)
}

// syncLeak never selects async mode, but its exchanges still run on
// the graph's exchanger: the graph must be closed all the same.
func syncLeak(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist) // want "graph g is never closed"
	if err != nil {
		return
	}
	g.SetAsyncExchange(false)
	g.ExchangeInt64(nil, nil)
}

// discarded builds a graph it can never close.
func discarded(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) error {
	_, err := dgraph.FromEdgeChunks(c, 8, chunk, dist) // want "never bound to a variable"
	return err
}

// the shapes below close (or hand off) correctly and must produce no
// findings.

func deferred(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	defer ex.Close()
	ex.Begin()
	_ = ex.Flush(nil)
}

func cleanup(t *testing.T, g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	t.Cleanup(func() { ex.Close() })
	ex.Begin()
	_ = ex.Flush(nil)
}

func graphClosed(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist)
	if err != nil {
		return
	}
	defer g.Close()
	g.SetAsyncExchange(true)
	g.ExchangeInt64(nil, nil)
}

// build hands the graph it constructed to its caller, who closes it.
func build(c *mpi.Comm, chunk []graph.Edge, dist dgraph.Distribution) (*dgraph.Graph, error) {
	g, err := dgraph.FromEdgeChunks(c, 8, chunk, dist)
	return g, err
}

// handsOff transfers ownership by passing the exchanger on.
func handsOff(g *dgraph.Graph) {
	ex := g.NewDeltaExchanger()
	drive(ex)
}

func drive(ex *dgraph.DeltaExchanger) {
	defer ex.Close()
	ex.Begin()
	_ = ex.Flush(nil)
}

// paramGraph exchanges on a caller-owned graph: the caller closes it,
// not this helper.
func paramGraph(g *dgraph.Graph) {
	g.SetAsyncExchange(true)
	g.ExchangeInt64(nil, nil)
}
