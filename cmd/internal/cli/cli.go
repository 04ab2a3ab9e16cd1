// Package cli holds the small helpers shared by graphdiam's command-line
// tools: loading graphs from files in any supported format, and loading the
// synthetic families by spec without an intermediate file.
package cli

import (
	"fmt"
	"os"
	"strings"

	"graphdiam/internal/dataset"
	"graphdiam/internal/gen"
	"graphdiam/internal/graph"
)

// LoadGraph reads a graph from path, dispatching on the extension:
// .gr (DIMACS), .bin (graphdiam binary), .metis/.graph (METIS), anything
// else as an edge list. The extension decides rather than content
// sniffing because headerless METIS cannot be told from an edge list.
func LoadGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	format := dataset.FormatEdgeList
	switch {
	case strings.HasSuffix(path, ".gr"):
		format = dataset.FormatDIMACS
	case strings.HasSuffix(path, ".bin"):
		format = dataset.FormatBinary
	case strings.HasSuffix(path, ".metis") || strings.HasSuffix(path, ".graph"):
		format = dataset.FormatMETIS
	}
	g, _, err := dataset.DecodeStream(f, format)
	return g, err
}

// Load resolves the -graph / -spec flag pair: exactly one must be set. A
// spec such as "mesh:256" or "rmat:16" follows gen.FromSpec, the grammar
// the graphdiamd generate endpoint shares; the seed drives both topology
// and weights.
func Load(path, spec string, seed uint64) (*graph.Graph, error) {
	switch {
	case path != "" && spec != "":
		return nil, fmt.Errorf("cli: -graph and -spec are mutually exclusive")
	case path != "":
		return LoadGraph(path)
	case spec != "":
		return gen.FromSpec(spec, seed)
	default:
		return nil, fmt.Errorf("cli: one of -graph or -spec is required")
	}
}
