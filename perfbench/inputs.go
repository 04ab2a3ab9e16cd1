package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"graphdiam/internal/bsp"
	"graphdiam/internal/gen"
	"graphdiam/internal/gio"
	"graphdiam/internal/graph"
	"graphdiam/internal/validate"
)

// input is one generated dataset: the graph the benchmark keeps as ground
// truth and the DIMACS bytes it uploads. The daemon sees only the bytes.
type input struct {
	Name   string
	Spec   string
	Seed   uint64
	G      *graph.Graph
	DIMACS []byte
}

// makeInput generates spec with seed and renders it as DIMACS text, the
// format the paper's road networks ship in. DIMACS states the node count,
// so isolated vertices of raw R-MAT survive the upload.
func makeInput(name, spec string, seed uint64) (*input, error) {
	g, err := gen.FromSpec(spec, seed)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := gio.WriteDIMACS(&b, g); err != nil {
		return nil, err
	}
	return &input{Name: name, Spec: spec, Seed: seed, G: g, DIMACS: b.Bytes()}, nil
}

// Random streams of a seeded run (see newRand).
const (
	streamQueries = 1 + iota
	streamDeltas
	streamSchedule
	streamKeys
	streamUntraced
	streamTraceDeltas
)

// newRand returns the benchmark's generator for one purpose of a seeded
// run; distinct streams keep, say, the query seeds independent of how
// many deltas were drawn.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// deltaEdges is the number of edges each append inserts.
const deltaEdges = 8

// makeDelta renders k random edge insertions between existing nodes of
// an n-node graph in the append text format. Fresh random pairs in a
// sparse graph are new edges, so every delta moves the dataset's head.
func makeDelta(rng *rand.Rand, n, k int) []byte {
	var b strings.Builder
	for i := 0; i < k; i++ {
		u := rng.IntN(n)
		v := rng.IntN(n - 1)
		if v >= u {
			v++
		}
		w := 1 - rng.Float64() // (0, 1]
		fmt.Fprintf(&b, "+ %d %d %s\n", u, v, strconv.FormatFloat(w, 'g', -1, 64))
	}
	return []byte(b.String())
}

// makeDeltas draws count deltas of deltaEdges edges each from rng.
func makeDeltas(rng *rand.Rand, n, count int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		out[i] = makeDelta(rng, n, deltaEdges)
	}
	return out
}

// seedSource draws distinct nonzero query seeds, so no two cold queries
// of a run share a cache key.
type seedSource struct {
	rng  *rand.Rand
	seen map[uint64]bool
}

func newSeedSource(seed uint64) *seedSource {
	return &seedSource{rng: newRand(seed, streamQueries), seen: map[uint64]bool{}}
}

func (s *seedSource) next() uint64 {
	for {
		v := s.rng.Uint64()>>16 + 1
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// oracleEntry is one cached reference diameter.
type oracleEntry struct {
	Spec     string  `json:"spec"`
	Seed     uint64  `json:"seed"`
	Diameter float64 `json:"diameter"`
}

// referenceDiameter returns the exact weighted diameter of in's graph,
// computed with validate.ExactDiameter and cached under dir by
// (spec, seed): the oracle costs seconds and its answer depends on
// nothing else.
func referenceDiameter(dir string, in *input) (float64, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s_%d.json", strings.ReplaceAll(in.Spec, ":", "-"), in.Seed))
	if b, err := os.ReadFile(path); err == nil {
		var e oracleEntry
		if err := json.Unmarshal(b, &e); err == nil && e.Spec == in.Spec && e.Seed == in.Seed && e.Diameter > 0 {
			return e.Diameter, nil
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	e := bsp.New(0)
	d := validate.ExactDiameter(in.G, e)
	e.Close()
	b, err := json.Marshal(oracleEntry{Spec: in.Spec, Seed: in.Seed, Diameter: d})
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return 0, err
	}
	return d, os.Rename(tmp, path)
}
