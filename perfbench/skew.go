package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	impir "github.com/impir/impir"
	"github.com/impir/impir/internal/database"
)

// runSkew reproduces the version-skew fault: one client updates rows in
// the upper half of a flat two-party CPU deployment while a second
// client retrieves rows in the lower half, which are never written. The
// two parties apply each update at different moments, so a read that
// lands between them XORs shares of two database versions; the changed
// row's selector bit leaks the difference into the answer, and the
// client returns a wrong record with no error.
func runSkew(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench skew", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of the records and of both clients' streams")
	seconds := fs.Float64("seconds", 5, "how long both clients run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reads, wrong, errs, updates, err := skew(context.Background(), *seed, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench skew:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# %s\nreads=%d wrong=%d (%.1f%%) read_errors=%d updates=%d\n",
		provenance(), reads, wrong, 100*float64(wrong)/float64(max(reads, 1)), errs, updates)
	return 0
}

// skewRecords is the size of the skew deployment, in 32-byte records.
const skewRecords = 1 << 14

func skew(ctx context.Context, seed int64, d time.Duration) (reads, wrong, errs, updates int, err error) {
	n := skewRecords
	data := genRecords(seed, 0, n, recordSize)
	db, err := database.FromFlat(data, recordSize)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	dep := newDeployment(0)
	defer dep.close()
	addrs, _, err := serveParties(dep, impir.ServerConfig{Engine: impir.EngineCPU, AllowWireUpdates: true}, db)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	d2 := impir.FlatDeployment(addrs...)
	writer, err := impir.Open(ctx, d2)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer writer.Close()
	reader, err := impir.Open(ctx, d2)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer reader.Close()

	deadline := time.Now().Add(d)
	half := uint64(n / 2)
	var wg sync.WaitGroup
	var werr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewPCG(uint64(seed), 1))
		for time.Now().Before(deadline) {
			rec := make([]byte, recordSize)
			for i := range rec {
				rec[i] = byte(rng.Uint32())
			}
			if werr = writer.Update(ctx, map[uint64][]byte{half + rng.Uint64N(half): rec}); werr != nil {
				return
			}
			updates++
		}
	}()
	rng := rand.New(rand.NewPCG(uint64(seed), 2))
	for time.Now().Before(deadline) {
		idx := rng.Uint64N(half)
		got, rerr := reader.Retrieve(ctx, idx)
		reads++
		switch {
		case rerr != nil:
			errs++
		case !bytes.Equal(got, data[idx*recordSize:(idx+1)*recordSize]):
			wrong++
		}
	}
	wg.Wait()
	if werr != nil {
		return reads, wrong, errs, updates, fmt.Errorf("update: %w", werr)
	}
	return reads, wrong, errs, updates, nil
}
