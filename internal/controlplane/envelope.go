package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/here-ft/here/internal/failover"
	"github.com/here-ft/here/internal/orchestrator"
	"github.com/here-ft/here/internal/period"
)

// errBadRequest wraps client mistakes (malformed JSON, bad
// parameters) so the mapper can classify them without a taxonomy of
// one-off sentinel errors.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

// badRequest marks err as a 400-class client error.
func badRequest(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// statusFor maps a domain error onto an HTTP status and a stable
// machine-readable code — the typed error→status mapping of the API.
//
//	unknown VM                → 404 not-found
//	duplicate protection      → 409 already-exists
//	no / homogeneous hosts    → 409 unplaceable
//	service lost, no replica  → 409 conflict-class codes
//	split-brain / re-activate → 409
//	bad parameters            → 400
//	anything else             → 500 internal
func statusFor(err error) (int, string) {
	var br errBadRequest
	switch {
	case errors.Is(err, orchestrator.ErrUnknownVM):
		return http.StatusNotFound, "not-found"
	case errors.Is(err, orchestrator.ErrAlreadyExists):
		return http.StatusConflict, "already-exists"
	case errors.Is(err, orchestrator.ErrNoHost),
		errors.Is(err, orchestrator.ErrNoHeterogeneous):
		return http.StatusConflict, "unplaceable"
	case errors.Is(err, orchestrator.ErrServiceLost):
		return http.StatusConflict, "service-lost"
	case errors.Is(err, orchestrator.ErrNoReplica):
		return http.StatusConflict, "no-replica"
	case errors.Is(err, failover.ErrAlreadyActivated):
		return http.StatusConflict, "already-activated"
	case errors.Is(err, failover.ErrSplitBrain):
		return http.StatusConflict, "split-brain"
	case errors.Is(err, period.ErrBadConfig):
		return http.StatusBadRequest, "bad-period-config"
	case errors.Is(err, errNoTrace):
		return http.StatusConflict, "no-trace"
	case errors.As(err, &br):
		return http.StatusBadRequest, "bad-request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeError renders err as the structured envelope with the mapped
// status.
func writeError(w http.ResponseWriter, err error) {
	status, code := statusFor(err)
	// An envelope of two strings always marshals.
	body, _ := json.Marshal(ErrorBody{
		Error: ErrorDetail{Code: code, Message: err.Error()},
	})
	writeBody(w, status, append(body, '\n'))
}

// writeJSON renders v with the given status. v is marshalled before
// anything is written, so a value JSON cannot carry (a NaN float)
// answers 500 with the internal envelope, not an empty 2xx body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody answers a complete JSON body with one Write.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
