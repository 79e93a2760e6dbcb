package serve

// POST /v1/inject — the synchronous single-value, single-bit what-if
// query: encode a value (or take a raw pattern), flip one bit, decode,
// and report the damage. This is one trial of the paper's §4 campaign
// served interactively; for posit8/posit16 the decode hits the
// precomputed LUTs in internal/posit. The pattern-derived half of the
// answer is core.Deriver.FromPattern — the derivation every campaign
// trial goes through — LRU-cached per (format, pattern, bit) triple.

import (
	"net/http"
	"strconv"
	"strings"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/qcat"
)

// InjectRequest is the body of POST /v1/inject. Exactly one of Value
// and Pattern must be set; Bit is required. It is exported so
// Client.Inject (and through it cmd/positload) can drive the endpoint
// typed.
type InjectRequest struct {
	// Format is a numfmt registry name, e.g. "posit32" or "ieee32".
	Format string `json:"format"`
	// Value is a finite float64 to encode into Format.
	Value *float64 `json:"value"`
	// Pattern is a raw bit pattern as a hex string ("0x4a90" or
	// "4a90"), taken as already encoded in Format.
	Pattern *string `json:"pattern"`
	// Bit is the position to flip, 0 (LSB) to width-1.
	Bit *int `json:"bit"`
}

// InjectResponse is the body of a successful POST /v1/inject. Field
// names follow the campaign CSV schema (docs/SERVICE.md documents
// both), bit patterns are hex strings, and non-finite numbers are the
// strings "NaN"/"+Inf"/"-Inf".
type InjectResponse struct {
	// Format is the canonical codec name the flip ran against.
	Format string `json:"format"`
	// Bit is the flipped position, 0 (LSB) to width-1.
	Bit int `json:"bit"`
	// BitField names the format field the bit lands in (sign, regime,
	// exponent, fraction, ...).
	BitField string `json:"bit_field"`
	// RegimeK is the regime run length k of the original pattern
	// (paper eq. 1); 0 for non-posit formats.
	RegimeK int `json:"regime_k"`
	// OrigValue is the error baseline: the request value when one was
	// given, else the decoded pattern.
	OrigValue JSONFloat `json:"orig_value"`
	// ReprValue is what the encoded pattern decodes back to.
	ReprValue JSONFloat `json:"repr_value"`
	// OrigBits is the encoded pattern before the flip.
	OrigBits HexBits `json:"orig_bits"`
	// FaultyBits is the pattern after the flip.
	FaultyBits HexBits `json:"faulty_bits"`
	// FaultyValue is what the flipped pattern decodes to.
	FaultyValue JSONFloat `json:"faulty_value"`
	// AbsErr is |faulty - orig|.
	AbsErr JSONFloat `json:"abs_err"`
	// RelErr is AbsErr scaled by |orig| (qcat.Point's convention).
	RelErr JSONFloat `json:"rel_err"`
	// Catastrophic reports a faulty value that decodes to NaN, ±Inf or
	// NaR, or an original of zero that the flip made nonzero
	// (qcat.Point's rule; no error threshold is involved).
	Catastrophic bool `json:"catastrophic"`
	// Cached reports whether the pattern-derived half of the answer
	// came from the server's LRU.
	Cached bool `json:"cached"`
}

// handleInject serves POST /v1/inject.
func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req InjectRequest
	if !decodeBody(w, r, &req) {
		return
	}
	codec, err := numfmt.Lookup(req.Format)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeUnknownFormat,
			"unknown format %q (known: %s)", req.Format, strings.Join(numfmt.Names(), ", "))
		return
	}
	if req.Bit == nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, "missing required field \"bit\"")
		return
	}
	bit := *req.Bit
	if bit < 0 || bit >= codec.Width() {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"bit %d out of range for %d-bit %s", bit, codec.Width(), codec.Name())
		return
	}
	if (req.Value == nil) == (req.Pattern == nil) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"exactly one of \"value\" and \"pattern\" must be set")
		return
	}

	// Resolve the input to an encoded pattern. A value input keeps its
	// exact float64 as the error baseline (matching core.Trial's
	// OrigValue); a pattern input's baseline is the decoded value.
	var pattern uint64
	var origValue float64
	if req.Value != nil {
		origValue = *req.Value
		pattern = codec.Encode(origValue)
	} else {
		p, err := strconv.ParseUint(strings.TrimPrefix(strings.ToLower(*req.Pattern), "0x"), 16, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "invalid pattern %q: %v", *req.Pattern, err)
			return
		}
		if wd := codec.Width(); wd < 64 && p>>uint(wd) != 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest,
				"pattern %q does not fit %d-bit %s", *req.Pattern, wd, codec.Name())
			return
		}
		pattern = p
	}

	f, cached := s.flipFor(codec, pattern, bit)
	if req.Value == nil {
		origValue = f.ReprValue
	}

	// The error metrics are value-derived (two inputs rounding to the
	// same pattern have different baselines), so they are computed per
	// request from the cached pattern-derived half.
	p := qcat.Point(origValue, f.FaultyVal)
	writeJSON(w, http.StatusOK, InjectResponse{
		Format:       codec.Name(),
		Bit:          bit,
		BitField:     f.FieldName,
		RegimeK:      f.RegimeK,
		OrigValue:    JSONFloat(origValue),
		ReprValue:    JSONFloat(f.ReprValue),
		OrigBits:     HexBits(pattern),
		FaultyBits:   HexBits(f.FaultyBits),
		FaultyValue:  JSONFloat(f.FaultyVal),
		AbsErr:       JSONFloat(p.AbsErr),
		RelErr:       JSONFloat(p.RelErr),
		Catastrophic: p.Catastrophic,
		Cached:       cached,
	})
}

// flipFor returns the pattern-derived flip answer, consulting the LRU
// first and caching core.Deriver.FromPattern's result on a miss. The
// boolean reports whether the answer was served from the cache.
func (s *Server) flipFor(codec numfmt.Codec, pattern uint64, bit int) (core.Flip, bool) {
	key := cacheKey{format: codec.Name(), pattern: pattern, bit: bit}
	if f, ok := s.cache.get(key); ok {
		return f, true
	}
	f := core.NewDeriver(codec).FromPattern(pattern, bit)
	s.cache.put(key, f)
	return f, false
}
