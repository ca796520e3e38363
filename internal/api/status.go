package api

import (
	"errors"
	"fmt"
	"net/http"

	"explink/internal/runctl"
)

// kinds is the runctl error taxonomy on the wire: each sentinel's stable
// kind string and HTTP status. Anything outside it is "internal" (500).
var kinds = []struct {
	sentinel error
	kind     string
	status   int
}{
	{runctl.ErrConfig, "config", http.StatusBadRequest},               // the request itself is wrong
	{runctl.ErrCancelled, "cancelled", http.StatusServiceUnavailable}, // cut short (e.g. a drain), retryable
	{runctl.ErrDeadlock, "deadlock", http.StatusUnprocessableEntity},  // valid request, network deadlocked
	{runctl.ErrUnstable, "unstable", http.StatusUnprocessableEntity},  // valid request, network unstable
	{runctl.ErrAudit, "audit", http.StatusInternalServerError},        // the engine broke an invariant
}

// Kind classifies an error against the runctl taxonomy with a stable wire
// string, so remote clients can branch on outcomes the way local callers use
// errors.Is. A nil error is "" (success); anything outside the taxonomy is
// "internal".
func Kind(err error) string {
	if err == nil {
		return ""
	}
	for _, k := range kinds {
		if errors.Is(err, k.sentinel) {
			return k.kind
		}
	}
	return "internal"
}

// HTTPStatus maps the runctl error taxonomy onto HTTP statuses (see kinds):
// nil is 200, anything outside the taxonomy 500.
func HTTPStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	for _, k := range kinds {
		if errors.Is(err, k.sentinel) {
			return k.status
		}
	}
	return http.StatusInternalServerError
}

// ErrorBody is the wire form of a failed request, carried in HTTP error
// responses and stdio error replies.
type ErrorBody struct {
	// Kind is the taxonomy class (see Kind).
	Kind string `json:"kind"`
	// Message is the error text.
	Message string `json:"message"`
}

// ErrorBodyOf builds the wire form of err; nil in, nil out.
func ErrorBodyOf(err error) *ErrorBody {
	if err == nil {
		return nil
	}
	return &ErrorBody{Kind: Kind(err), Message: err.Error()}
}

// Err reconstructs a Go error from a wire ErrorBody, wrapping the matching
// runctl sentinel so errors.Is classification survives the network hop (a
// worker's "cancelled" failure still classifies as runctl.ErrCancelled on
// the coordinator). A nil body returns nil.
func (e *ErrorBody) Err() error {
	if e == nil {
		return nil
	}
	for _, k := range kinds {
		if e.Kind == k.kind {
			return fmt.Errorf("%s: %w", e.Message, k.sentinel)
		}
	}
	return errors.New(e.Message)
}
