package main

import (
	"math/rand/v2"
	"time"

	"github.com/impir/impir/internal/dpf"
	"github.com/impir/impir/internal/xorop"
)

// standardLayers times the benchmark's own calls into the two server
// kernels and the client key generator at a workload's geometry:
// domain is log2 of the rows one query addresses, db the rows one scan
// covers (flat, rowSize bytes each).
func standardLayers(domain int, db []byte, rowSize int) (map[string]metric, error) {
	rng := rand.New(rand.NewPCG(7, 7))
	p := dpf.Params{Domain: domain}

	gen := make([]float64, 0, 200)
	var key *dpf.Key
	for i := 0; i < cap(gen); i++ {
		alpha := rng.Uint64N(1 << domain)
		start := time.Now()
		k0, _, err := dpf.Gen(p, alpha, nil)
		gen = append(gen, float64(time.Since(start))/float64(time.Microsecond))
		if err != nil {
			return nil, err
		}
		key = k0
	}

	evals := make([]float64, 0, 3)
	for i := 0; i < cap(evals); i++ {
		start := time.Now()
		if _, err := key.EvalFull(dpf.FullEvalOptions{}); err != nil {
			return nil, err
		}
		evals = append(evals, float64(time.Since(start))/float64(uint64(1)<<domain))
	}

	rows := len(db) / rowSize
	sel := make([]uint64, (rows+63)/64)
	for i := range sel {
		sel[i] = rng.Uint64()
	}
	if tail := rows % 64; tail != 0 {
		sel[len(sel)-1] &= 1<<tail - 1
	}
	acc := make([]byte, rowSize)
	scans := make([]float64, 0, 5)
	for i := 0; i < cap(scans); i++ {
		start := time.Now()
		if err := xorop.AccumulateBatch([][]byte{acc}, db, rowSize, [][]uint64{sel}); err != nil {
			return nil, err
		}
		scans = append(scans, float64(len(db))/time.Since(start).Seconds()/1e9)
	}

	return map[string]metric{
		"client.keygen_us": {median(gen), "us"},
		"dpf.ns_per_leaf":  {median(evals), "ns"},
		"xorop.gb_s":       {median(scans), "GB/s"},
	}, nil
}
