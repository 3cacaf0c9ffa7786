package nimble

import (
	"errors"
	"fmt"
	"time"

	"nimble/internal/serve"
	"nimble/internal/verify"
)

// Sentinel errors of the public API. All are matched with errors.Is; the
// errors actually returned wrap these with context (entry name, arity).
var (
	// ErrUnknownEntry reports an Invoke against an entry function the
	// program does not define. Program.Entrypoints lists what exists.
	ErrUnknownEntry = errors.New("nimble: unknown entry function")
	// ErrBadArity reports an Invoke with the wrong number of arguments for
	// the entry's signature.
	ErrBadArity = errors.New("nimble: wrong number of arguments")
	// ErrCanceled reports an invocation abandoned because its context was
	// canceled or its deadline passed. Returned errors wrap both this
	// sentinel and the underlying context error, so
	// errors.Is(err, context.DeadlineExceeded) also works.
	ErrCanceled = serve.ErrCanceled
	// ErrClosed reports an operation on a closed Session or Service.
	ErrClosed = serve.ErrClosed
	// ErrBusy reports an Invoke or InvokeStream on a Session that still has
	// a stream open: sessions are single-threaded, so the open stream owns
	// the VM until it is drained or closed. Services have no such
	// restriction — their streams are stepped on the scheduler's sessions,
	// interleaved with other requests.
	ErrBusy = errors.New("nimble: session busy: a stream is still open")
	// ErrBadInput reports a request rejected at the Invoke boundary before
	// reaching the VM: wrong value kind, or a tensor whose dtype, rank, or
	// static dimensions contradict the entry's compiled signature. Arity
	// mismatches (ErrBadArity) match this sentinel too, so servers can map
	// the whole family to one 400. Rejected requests never consume a
	// session.
	ErrBadInput = serve.ErrBadInput
	// ErrInternal reports an execution fault: a VM or kernel panic
	// recovered at the session boundary instead of crashing the process.
	// In a Service the faulting session is quarantined (replaced by a
	// fresh VM), so no state the failed request touched can leak into a
	// later one; a plain Session poisons itself and returns ErrClosed from
	// then on.
	ErrInternal = serve.ErrInternal
	// ErrOverloaded reports a request shed by the Service's admission
	// control: the entry's queue is full, the request's deadline cannot be
	// met at the current backlog, or the entry's circuit breaker is open
	// after consecutive internal faults. RetryAfter extracts the back-off
	// hint these errors carry.
	ErrOverloaded = serve.ErrOverloaded
	// ErrUnknownModel reports a Registry request addressing a model name or
	// pinned version that is not deployed. Registry.Models lists what is.
	// Servers map it to 404 — the reference is well-formed, the target just
	// does not exist (malformed references are ErrBadInput → 400).
	ErrUnknownModel = errors.New("nimble: unknown model")
	// ErrNoCanary reports a Promote or Rollback against a model with no
	// canary rollout in progress: there is nothing to promote or roll back.
	// Servers map it to 409.
	ErrNoCanary = errors.New("nimble: no canary deployment in progress")
	// ErrVerify reports a static-verifier rejection: a compiled artifact
	// (the IR after some pass, the emitted bytecode, or a deserialized
	// executable in Load) violated a machine-checked invariant. The concrete
	// error is a *VerificationError listing every violation; it matches this
	// sentinel with errors.Is. See docs/verifier.md for the catalog.
	ErrVerify = errors.New("nimble: verification failed")
)

// RetryAfter extracts the back-off hint from an ErrOverloaded-family
// error: how long the admission controller estimates until capacity
// exists (or the circuit breaker closes). Servers surface it as a
// Retry-After header; ok is false for every other error.
func RetryAfter(err error) (d time.Duration, ok bool) {
	var oe *serve.OverloadError
	if errors.As(err, &oe) {
		return oe.RetryAfter, true
	}
	return 0, false
}

func unknownEntry(name string) error {
	return fmt.Errorf("%w: %q", ErrUnknownEntry, name)
}

// badArity matches both ErrBadArity (the precise sentinel) and ErrBadInput
// (the family servers map to 400).
func badArity(sig *EntrySignature, got int) error {
	return fmt.Errorf("%w: %s takes %d, got %d", errBadArityInput{}, sig.Name, len(sig.Params), got)
}

// errBadArityInput bridges the two sentinels an arity error belongs to.
type errBadArityInput struct{}

func (errBadArityInput) Error() string { return ErrBadArity.Error() }
func (errBadArityInput) Is(target error) bool {
	return target == ErrBadArity || target == ErrBadInput
}

// canceled wraps err in the ErrCanceled family when it is a context error
// (possibly buried in a wrap chain); other errors pass through untouched.
// The classification itself lives in internal/serve so both layers agree.
func canceled(err error) error {
	return serve.WrapCtxErr(err)
}

// VerificationError reports invariant violations found by the static
// verifier (WithVerify or Load's executable check). It matches ErrVerify
// with errors.Is. Stage names the pipeline boundary that failed ("after
// manifest-alloc", "executable", "loaded executable"); Violations holds one
// rendered diagnostic per violated invariant, each prefixed with its
// catalog ID ("[mem.coalesce-overlap] ...").
type VerificationError struct {
	Stage      string
	Violations []string
}

func (e *VerificationError) Error() string {
	msg := fmt.Sprintf("%s: %d invariant violation(s) %s", ErrVerify.Error(), len(e.Violations), e.Stage)
	for _, v := range e.Violations {
		msg += "\n  " + v
	}
	return msg
}

func (e *VerificationError) Is(target error) bool { return target == ErrVerify }

// wrapVerify converts an internal *verify.Error buried anywhere in err's
// chain into the public *VerificationError; other errors pass through.
func wrapVerify(err error) error {
	var ve *verify.Error
	if !errors.As(err, &ve) {
		return err
	}
	pub := &VerificationError{Stage: ve.Stage}
	for _, v := range ve.Violations {
		pub.Violations = append(pub.Violations, v.String())
	}
	return pub
}
