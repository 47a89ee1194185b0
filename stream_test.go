package fdx_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fdx"
)

func TestAccumulatorStreamedDiscovery(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	acc := fdx.NewAccumulator([]string{"zip", "city", "state"}, fdx.Options{Seed: 9})
	cities := []string{"chicago", "madison", "milwaukee", "duluth"}
	states := []string{"il", "wi", "wi", "mn"}
	for batch := 0; batch < 4; batch++ {
		rel := fdx.NewRelation("batch", "zip", "city", "state")
		for i := 0; i < 300; i++ {
			c := rng.Intn(len(cities))
			rel.AppendRow([]string{fmt.Sprintf("%d", 60000+c*7+rng.Intn(3)), cities[c], states[c]})
		}
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	if acc.Rows() != 1200 || acc.Batches() != 4 {
		t.Errorf("rows=%d batches=%d", acc.Rows(), acc.Batches())
	}
	res, err := acc.Discover()
	if err != nil {
		t.Fatal(err)
	}
	foundCity := false
	for _, fd := range res.FDs {
		if fd.RHS == "city" || fd.RHS == "state" {
			foundCity = true
		}
	}
	if !foundCity {
		t.Errorf("streamed FDs missing: %v", res.FDs)
	}
	if res.ModelDuration <= 0 {
		t.Error("model duration not recorded")
	}
}

// TestAccumulatorOneBatchMatchesDiscover is the public face of the core's
// single-batch pin: a stream of one batch discovers exactly what Discover
// does on that batch — FDs, scores, B and order — including under a
// MaxRows cut, where the stream's S must divide by the pairs counted.
func TestAccumulatorOneBatchMatchesDiscover(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(4)), 400, 0.03)
	for _, maxRows := range []int{0, 100, 257} {
		opts := fdx.Options{Seed: 4, MaxRows: maxRows}
		want, err := fdx.Discover(rel, opts)
		if err != nil {
			t.Fatal(err)
		}
		acc := fdx.NewAccumulator(rel.AttrNames(), opts)
		if err := acc.Add(rel); err != nil {
			t.Fatal(err)
		}
		got, err := acc.Discover()
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, want, got)
	}
}

// TestPoisonedCountsRejectedTyped sends pair counts no stream can hold —
// in bytes that pass every checksum — through each path that decodes
// statistics from outside the program: a snapshot and a WAL record on
// LoadCheckpoint, RestoreAccumulator and MergeSnapshot. Each must fail
// with ErrCorruptCheckpoint, and a failed merge must leave the recipient's
// snapshot bytes as they were.
func TestPoisonedCountsRejectedTyped(t *testing.T) {
	rel := noisyAddressRelation(rand.New(rand.NewSource(8)), 120, 0.05)
	opts := fdx.Options{Seed: 8}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "state.fdx")
	// The checkpoint holds batch 0; the WAL beside it, batch 1.
	acc := fdx.NewAccumulator(rel.AttrNames(), opts)
	if err := acc.Add(rel.Slice(0, 40)); err != nil {
		t.Fatal(err)
	}
	if err := acc.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	wal, err := fdx.OpenWAL(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.AddLogged(rel.Slice(40, 80), wal); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fdx.LoadCheckpoint(ckpt, opts); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	// A shard holding batch 2, for the recipient of batches 0 and 1.
	shard := fdx.NewAccumulator(rel.AttrNames(), opts)
	if err := shard.AddAt(rel.Slice(80, 120), 2); err != nil {
		t.Fatal(err)
	}
	var shardSnap, before bytes.Buffer
	if err := shard.Snapshot(&shardSnap); err != nil {
		t.Fatal(err)
	}
	if err := acc.Snapshot(&before); err != nil {
		t.Fatal(err)
	}

	corrupt := func(path, name string, err error) {
		t.Helper()
		if !errors.Is(err, fdx.ErrCorruptCheckpoint) {
			t.Errorf("%s with count %s: want ErrCorruptCheckpoint, got %v", path, name, err)
		}
	}
	for name, bad := range badCounts {
		badSnap := poisonSnapshot(t, snap, bad)
		if err := os.WriteFile(ckpt, badSnap, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := fdx.LoadCheckpoint(ckpt, opts)
		corrupt("LoadCheckpoint snapshot", name, err)

		if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckpt+fdx.WALSuffix, poisonWAL(walBytes, bad), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = fdx.LoadCheckpoint(ckpt, opts)
		corrupt("LoadCheckpoint WAL", name, err)

		_, err = fdx.RestoreAccumulator(bytes.NewReader(badSnap), opts)
		corrupt("RestoreAccumulator", name, err)

		applied, err := acc.MergeSnapshot(bytes.NewReader(poisonSnapshot(t, shardSnap.Bytes(), bad)))
		corrupt("MergeSnapshot", name, err)
		var after bytes.Buffer
		if err := acc.Snapshot(&after); err != nil {
			t.Fatal(err)
		}
		if applied || !bytes.Equal(after.Bytes(), before.Bytes()) {
			t.Errorf("MergeSnapshot with count %s changed the recipient", name)
		}
	}
}

func TestAccumulatorRejectsBadBatch(t *testing.T) {
	acc := fdx.NewAccumulator([]string{"a", "b"}, fdx.Options{})
	bad := fdx.NewRelation("t", "x", "y")
	bad.AppendRow([]string{"1", "2"})
	bad.AppendRow([]string{"1", "2"})
	if err := acc.Add(bad); err == nil {
		t.Error("schema mismatch accepted")
	}
	if _, err := acc.Discover(); err == nil {
		t.Error("empty accumulator discover should error")
	}
}

// TestLoadCheckpointCountsTornTail: a WAL whose last record was torn
// mid-append restores fine (the torn batch is dropped by design), but the
// truncation must be visible on the fdx_wal_torn_tail_total metric rather
// than silent.
func TestLoadCheckpointCountsTornTail(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	opts := fdx.Options{Seed: 3}
	dir := t.TempDir()
	ckpt := dir + "/state.fdx"

	rel := noisyAddressRelation(rng, 240, 0.02)
	acc := fdx.NewAccumulator(rel.AttrNames(), opts)
	if err := acc.SaveCheckpoint(ckpt); err != nil {
		t.Fatal(err)
	}
	wal, err := fdx.OpenWAL(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		if err := acc.AddLogged(rel.Slice(b*100, (b+1)*100), wal); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the second record: drop the final 5 bytes of the log.
	info, err := os.Stat(ckpt + fdx.WALSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ckpt+fdx.WALSuffix, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	opts.Metrics = fdx.NewMetrics()
	restored, err := fdx.LoadCheckpoint(ckpt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Batches() != 1 {
		t.Errorf("restored %d batches, want 1 (torn second batch dropped)", restored.Batches())
	}
	if got := opts.Metrics.Counter("fdx_wal_torn_tail_total").Value(); got != 1 {
		t.Errorf("fdx_wal_torn_tail_total = %d, want 1", got)
	}

	// An intact log must not count a torn tail.
	opts2 := fdx.Options{Seed: 3, Metrics: fdx.NewMetrics()}
	if err := os.Truncate(ckpt+fdx.WALSuffix, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fdx.LoadCheckpoint(ckpt, opts2); err != nil {
		t.Fatal(err)
	}
	if got := opts2.Metrics.Counter("fdx_wal_torn_tail_total").Value(); got != 0 {
		t.Errorf("intact wal counted torn tail: %d", got)
	}
}
