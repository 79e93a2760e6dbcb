package serve

// JSON request and response plumbing. Every JSON request body goes
// through decodeBody. Every response body positserve writes — success
// or error — is JSON; there is no plaintext http.Error path anywhere
// in the package, so clients can always dispatch on the stable
// machine-readable "code" field of an error envelope.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"positres/internal/spec"
	"positres/internal/store"
)

// Stable error codes of the service. These are API surface: clients
// dispatch on them, so existing values never change meaning (adding
// new ones is fine). docs/SERVICE.md is the catalogue. The validation
// codes are aliases of the canonical internal/spec constants, so the
// CLI and the HTTP API reject a malformed campaign with the same code.
const (
	codeBadRequest       = spec.CodeBadRequest    // malformed body, missing/invalid field
	codeUnknownFormat    = spec.CodeUnknownFormat // format not in the numfmt registry
	codeUnknownField     = spec.CodeUnknownField  // field not in the sdrbench registry
	codeNotFound         = "not_found"            // no such route or campaign id
	codeMethodNotAllowed = "method_not_allowed"   // route exists, verb does not
	codeQueueFull        = "queue_full"           // campaign queue at capacity (429)
	codeNotReady         = "not_ready"            // results requested before completion
	codeDraining         = "draining"             // server is shutting down
	codeInternal         = "internal"             // unexpected server-side failure
)

// apiError is the body of every non-2xx response:
//
//	{"error": {"code": "queue_full", "message": "..."}}
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the envelope wrapping apiError.
type errorBody struct {
	Error apiError `json:"error"`
}

// writeJSON marshals v (indented, for curl-friendliness) and writes
// it with the given status. Marshal happens before WriteHeader so an
// encoding failure can still produce a well-formed 500 envelope.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Practically unreachable: every payload type in this package
		// marshals by construction (non-finite floats go through
		// JSONFloat). Still, fail as JSON, not as a blank 500.
		raw = []byte(fmt.Sprintf("{\n  \"error\": {\n    \"code\": %q,\n    \"message\": %q\n  }\n}", codeInternal, err.Error()))
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(raw, '\n')); err != nil {
		// The client is gone; nothing useful to do with the error, but
		// don't silently drop it either.
		fmt.Fprintln(os.Stderr, "positserve: response write:", err)
	}
}

// writeError writes the standard JSON error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...interface{}) {
	writeJSON(w, status, errorBody{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// decodeBody decodes the request body, at most maxBodyBytes, as
// exactly one JSON value into v, refusing unknown fields and any data
// after the value: json.Decoder.Decode alone stops after the first
// value, so a body of two campaign specs would run the first and drop
// the second. On failure it answers 400 bad_request and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "invalid JSON body: %v", err)
		return false
	}
	return true
}

// JSONFloat is a float64 that marshals non-finite values as the
// strings "NaN", "+Inf" and "-Inf" instead of failing (encoding/json
// rejects them as numbers). Catastrophic flips produce exactly those
// values, so they must survive the trip to the client. It is the
// store's Float, so inject answers and aggregate documents share one
// encoding; it is exported because InjectResponse carries it both
// server-side and in Client.Inject's decoded answer.
type JSONFloat = store.Float

// HexBits is a bit pattern that marshals as a "0x…" hex string.
// Patterns of the 64-bit formats exceed 2^53, so emitting them as
// JSON numbers would silently lose low bits in any IEEE-double-based
// JSON reader; strings are exact at every width.
type HexBits uint64

// MarshalJSON implements json.Marshaler.
func (b HexBits) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("\"0x%x\"", uint64(b))), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting the "0x…" (or
// bare hex) strings MarshalJSON emits.
func (b *HexBits) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	v, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(s), "0x"), 16, 64)
	if err != nil {
		return fmt.Errorf("serve: hex bits %q: %w", s, err)
	}
	*b = HexBits(v)
	return nil
}
