// Package fdxerr defines the typed failure taxonomy of the FDX pipeline.
//
// Every failure path in the discovery stack — input validation, the
// Graphical Lasso, precision recovery, the UDUᵀ factorization, the
// regularization fallback ladder — wraps exactly one of these sentinels, so
// callers can classify failures with errors.Is/errors.As without parsing
// message strings. The public package fdx re-exports each sentinel; internal
// packages wrap them with stage-specific context via fmt.Errorf("...: %w").
//
// The taxonomy is deliberately small: each sentinel names a *cause class*
// that demands a different caller reaction, not an individual call site.
//
//   - ErrBadInput: the caller handed us something malformed (wrong
//     dimensions, duplicate attribute names, asymmetric covariance). Fix the
//     input; retrying cannot help.
//   - ErrSingularCovariance: the covariance estimate is (numerically)
//     singular and precision recovery produced a non-positive partial
//     variance. More data or more regularization may help.
//   - ErrNonPositivePivot: the UDUᵀ factorization hit a
//     non-positive pivot — the matrix is not positive definite. The fallback
//     ladder retries these with escalating diagonal shrinkage.
//   - ErrNotConverged: an iterative solver exhausted its iteration budget
//     without meeting its tolerance and the caller asked for strict
//     convergence.
//   - ErrCancelled: work was abandoned because the caller's context was
//     cancelled or its deadline expired. The context's own error
//     (context.Canceled / context.DeadlineExceeded) is wrapped alongside, so
//     errors.Is matches either name.
//   - ErrInternal: an internal invariant panic was recovered at the public
//     API boundary and converted into an error. Always a bug in fdx, never
//     in the caller's data; the wrapped message carries the panic value.
//   - ErrCorruptCheckpoint: a durable snapshot or WAL failed validation
//     (bad magic, CRC mismatch, impossible dimensions, mid-log torn record)
//     or could not be durably written (short write, failed fsync or
//     rename). The in-memory state is still good; the on-disk checkpoint
//     must not be trusted.
//   - ErrCheckpointVersion: a checkpoint was written by an incompatible
//     format version. The bytes are intact but this build cannot interpret
//     them; re-snapshot from a live accumulator or upgrade the reader.
//   - ErrShardMismatch: two accumulator shards cannot be merged — their
//     options fingerprints or attribute schemas differ, or their batch
//     coverage overlaps partially (the same batch folded into both). The
//     shards are individually intact; the merge request is what is wrong.
package fdxerr

import (
	"errors"
	"fmt"
)

// Sentinel errors of the taxonomy. See the package comment for when each is
// used and what a caller should do about it.
var (
	ErrBadInput           = errors.New("bad input")
	ErrSingularCovariance = errors.New("singular covariance")
	ErrNonPositivePivot   = errors.New("non-positive pivot")
	ErrNotConverged       = errors.New("solver did not converge")
	ErrCancelled          = errors.New("cancelled")
	ErrInternal           = errors.New("internal invariant violation")
	ErrCorruptCheckpoint  = errors.New("corrupt checkpoint")
	ErrCheckpointVersion  = errors.New("unsupported checkpoint version")
	ErrShardMismatch      = errors.New("shard mismatch")
)

// BadInput wraps ErrBadInput with a formatted message.
func BadInput(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrBadInput)...)
}

// Corrupt wraps ErrCorruptCheckpoint with a formatted message.
func Corrupt(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCorruptCheckpoint)...)
}

// Version wraps ErrCheckpointVersion with a formatted message.
func Version(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrCheckpointVersion)...)
}

// ShardMismatch wraps ErrShardMismatch with a formatted message.
func ShardMismatch(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrShardMismatch)...)
}

// Cancelled wraps a context error so the result matches both ErrCancelled
// and the original context sentinel under errors.Is. A nil ctxErr returns
// nil, so call sites can pass ctx.Err() through unconditionally.
func Cancelled(ctxErr error) error {
	if ctxErr == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
}

// Recovered converts a recovered panic value into an ErrInternal-wrapped
// error. The stage names the API boundary that caught the panic.
func Recovered(stage string, v any) error {
	if err, ok := v.(error); ok {
		return fmt.Errorf("%s: recovered panic: %w: %w", stage, err, ErrInternal)
	}
	return fmt.Errorf("%s: recovered panic: %v: %w", stage, v, ErrInternal)
}
