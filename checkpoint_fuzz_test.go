package fdx_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"fdx"
)

// badCounts are the pair counts no stream can hold, as functions of the
// pair total the count is over: not a number, negative, fractional, and
// more agreeing pairs than there are pairs.
var badCounts = map[string]func(pairs float64) float64{
	"NaN":     func(float64) float64 { return math.NaN() },
	"-1":      func(float64) float64 { return -1 },
	"0.5":     func(float64) float64 { return 0.5 },
	"pairs+1": func(pairs float64) float64 { return pairs + 1 },
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// poisonSnapshot returns a copy of snapshot snap whose first pair count is
// bad(pairs), its section CRC recomputed: the bytes pass every checksum,
// so only the core's count check stands between them and the state. The
// walk follows the version-2 frames: a 16-byte prologue, then sections of
// ID u32, length u64, payload and CRC32C, the meta payload holding the
// pair total at offset 24 and the counts section (ID 2) the counts.
func poisonSnapshot(tb testing.TB, snap []byte, bad func(pairs float64) float64) []byte {
	tb.Helper()
	le := binary.LittleEndian
	out := append([]byte(nil), snap...)
	var pairs float64
	for at := 16; at+12 <= len(out); {
		n := int(le.Uint64(out[at+4:]))
		end := at + 12 + n
		switch le.Uint32(out[at:]) {
		case 1:
			pairs = float64(le.Uint64(out[at+12+24:]))
		case 2:
			le.PutUint64(out[at+12:], math.Float64bits(bad(pairs)))
			le.PutUint32(out[end:], crc32.Checksum(out[at:end], castagnoli))
			return out
		}
		at = end + 4
	}
	tb.Fatal("snapshot has no counts section")
	return nil
}

// poisonWAL is poisonSnapshot for the first record of a WAL: a length
// u32, then a payload of seq, rows, pairs (offset 16), k, global (36 bytes
// in all) and the counts, then the CRC32C over length and payload.
func poisonWAL(wal []byte, bad func(pairs float64) float64) []byte {
	le := binary.LittleEndian
	out := append([]byte(nil), wal...)
	end := 4 + int(le.Uint32(out))
	pairs := float64(le.Uint64(out[4+16:]))
	le.PutUint64(out[4+36:], math.Float64bits(bad(pairs)))
	le.PutUint32(out[end:], crc32.Checksum(out[:end], castagnoli))
	return out
}

// assertDiscoverSound is the check every state a checkpoint fuzz target
// accepts must pass: Discover returns a result or an error from the
// taxonomy, and a result sanitized no column — counts that passed the
// core's check always give a finite S.
func assertDiscoverSound(t *testing.T, acc *fdx.Accumulator) {
	t.Helper()
	res, err := acc.Discover()
	if err != nil {
		if !errors.Is(err, fdx.ErrBadInput) &&
			!errors.Is(err, fdx.ErrSingularCovariance) &&
			!errors.Is(err, fdx.ErrNonPositivePivot) &&
			!errors.Is(err, fdx.ErrNotConverged) &&
			!errors.Is(err, fdx.ErrInternal) {
			t.Fatalf("discover error outside the taxonomy: %v", err)
		}
		return
	}
	if cols := res.Diagnostics.SanitizedColumns; len(cols) > 0 {
		t.Fatalf("accepted state sanitized columns %v", cols)
	}
}

// fuzzSnapshotSeeds builds realistic seed inputs for FuzzLoadCheckpoint: a
// valid snapshot and WAL plus targeted mutations of each (version bump,
// flipped CRC, truncations).
func fuzzSnapshotSeeds(tb testing.TB) (snap, wal []byte) {
	tb.Helper()
	dir := tb.(*testing.F).TempDir()
	path := filepath.Join(dir, "seed.fdx")
	acc := fdx.NewAccumulator([]string{"zip", "city", "state"}, fdx.Options{Seed: 7})
	w, err := fdx.OpenWAL(path + fdx.WALSuffix)
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 2; b++ {
		rel := fdx.NewRelation("seed", "zip", "city", "state")
		for i := 0; i < 12; i++ {
			z := rng.Intn(4)
			if err := rel.AppendRow([]string{
				string(rune('a' + z)), string(rune('p' + z%3)), string(rune('x' + z%2)),
			}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := acc.AddLogged(rel, w); err != nil {
			tb.Fatal(err)
		}
	}
	if err := acc.SaveCheckpoint(path); err != nil {
		tb.Fatal(err)
	}
	snap, err = os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	wal, err = os.ReadFile(path + fdx.WALSuffix)
	if err != nil {
		tb.Fatal(err)
	}
	return snap, wal
}

// FuzzLoadCheckpoint feeds arbitrary bytes through the checkpoint restore
// path. The contract: LoadCheckpoint either returns a valid Accumulator or
// an error wrapping ErrCorruptCheckpoint, ErrCheckpointVersion, or
// ErrBadInput — never a panic, whatever the bytes — and an accepted
// accumulator discovers soundly (assertDiscoverSound). The mode byte routes
// the fuzz data into the snapshot file (with an absent or valid WAL) or
// into the WAL beside a valid snapshot, so both decoders get coverage.
// Run longer campaigns with:
//
//	go test -fuzz FuzzLoadCheckpoint -fuzztime 30s .
func FuzzLoadCheckpoint(f *testing.F) {
	validSnap, validWAL := fuzzSnapshotSeeds(f)

	f.Add(uint8(0), validSnap)
	f.Add(uint8(1), validSnap)
	f.Add(uint8(2), validWAL)
	versioned := append([]byte(nil), validSnap...)
	versioned[8] = 99
	f.Add(uint8(0), versioned)
	crcFlip := append([]byte(nil), validSnap...)
	crcFlip[len(crcFlip)-1] ^= 0x01
	f.Add(uint8(0), crcFlip)
	f.Add(uint8(0), validSnap[:16])
	f.Add(uint8(0), validSnap[:len(validSnap)/2])
	f.Add(uint8(2), validWAL[:len(validWAL)-3])
	f.Add(uint8(2), []byte{})
	f.Add(uint8(0), []byte("FDXCKPT1"))
	v1 := append([]byte(nil), validSnap...)
	v1[8] = 1 // the retired three-copy layout
	f.Add(uint8(0), v1)
	f.Add(uint8(0), poisonSnapshot(f, validSnap, badCounts["NaN"]))
	f.Add(uint8(2), poisonWAL(validWAL, badCounts["pairs+1"]))

	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "state.fdx")
		switch mode % 3 {
		case 0: // data is the snapshot, no WAL
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		case 1: // data is the snapshot, valid-but-unrelated WAL beside it
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+fdx.WALSuffix, validWAL, 0o644); err != nil {
				t.Fatal(err)
			}
		case 2: // valid snapshot, data is the WAL
			if err := os.WriteFile(path, validSnap, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path+fdx.WALSuffix, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		acc, err := fdx.LoadCheckpoint(path, fdx.Options{Seed: 7})
		if err != nil {
			if !errors.Is(err, fdx.ErrCorruptCheckpoint) &&
				!errors.Is(err, fdx.ErrCheckpointVersion) &&
				!errors.Is(err, fdx.ErrBadInput) {
				t.Fatalf("error outside the taxonomy: %v", err)
			}
			return
		}
		if acc == nil {
			t.Fatal("nil accumulator with nil error")
		}
		assertDiscoverSound(t, acc)
		// A restored accumulator must be usable: snapshotting it again and
		// restoring the copy has to round-trip without error.
		var buf bytes.Buffer
		if err := acc.Snapshot(&buf); err != nil {
			t.Fatalf("restored accumulator cannot snapshot: %v", err)
		}
		if _, err := fdx.RestoreAccumulator(&buf, fdx.Options{Seed: 7}); err != nil {
			t.Fatalf("re-restore failed: %v", err)
		}
	})
}
