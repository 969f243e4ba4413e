package dohserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/deadline"
	"repro/internal/dnsclient"
	"repro/internal/dnswire"
)

// The JSON DoH API: both Google (dns.google/resolve) and Cloudflare
// (cloudflare-dns.com/dns-query with Accept: application/dns-json)
// expose this developer-friendly sibling of RFC 8484. The field
// layout follows their de-facto schema.

// JSONContentType is the de-facto media type for JSON DoH.
const JSONContentType = "application/dns-json"

// JSONPath is the conventional endpoint path (Google's layout).
const JSONPath = "/resolve"

// JSONQuestion is the question echo in a JSON response.
type JSONQuestion struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

// JSONAnswer is one record in a JSON response.
type JSONAnswer struct {
	Name string `json:"name"`
	Type int    `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

// JSONResponse is the response body schema.
type JSONResponse struct {
	Status   int            `json:"Status"`
	TC       bool           `json:"TC"`
	RD       bool           `json:"RD"`
	RA       bool           `json:"RA"`
	Question []JSONQuestion `json:"Question"`
	Answer   []JSONAnswer   `json:"Answer,omitempty"`
}

// ServeJSON answers the ?name=&type= JSON API.
func (h *Handler) ServeJSON(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rawName := r.URL.Query().Get("name")
	if rawName == "" {
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	name := dnswire.NewName(rawName)
	if err := name.Validate(); err != nil {
		// The wire path could never carry it.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !utf8.ValidString(rawName) {
		// Nor could a JSON answer echo it.
		http.Error(w, "name is not UTF-8", http.StatusBadRequest)
		return
	}
	typ, err := parseTypeParam(r.URL.Query().Get("type"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	q := dnswire.NewQuery(dnsclient.RandomID(), name, typ)
	h.queries.Add(1)
	ctx := h.resolveContext(new(deadline.Lazy), r.Context())
	defer ctx.Stop()
	resp, err := h.Resolver.Resolve(ctx, q)
	if err != nil {
		resp = q.Reply()
		resp.Header.RCode = dnswire.RCodeServFail
		resp.Header.RecursionAvailable = true
	}

	body := JSONResponse{
		Status: int(resp.Header.RCode),
		TC:     resp.Header.Truncated,
		RD:     resp.Header.RecursionDesired,
		RA:     resp.Header.RecursionAvailable,
	}
	for _, question := range resp.Questions {
		body.Question = append(body.Question, JSONQuestion{
			Name: string(question.Name), Type: int(question.Type),
		})
	}
	for _, rr := range resp.Answers {
		body.Answer = append(body.Answer, JSONAnswer{
			Name: string(rr.Name), Type: int(rr.Type), TTL: rr.TTL,
			Data: rr.Data.String(),
		})
	}
	w.Header().Set("Content-Type", JSONContentType)
	w.Header().Set("Cache-Control", fmt.Sprintf("max-age=%d", maxAge(resp)))
	json.NewEncoder(w).Encode(body)
}

// parseTypeParam accepts mnemonics ("A", "AAAA") and numeric types;
// empty means A, like the public endpoints.
func parseTypeParam(s string) (dnswire.Type, error) {
	if s == "" {
		return dnswire.TypeA, nil
	}
	switch strings.ToUpper(s) {
	case "A":
		return dnswire.TypeA, nil
	case "AAAA":
		return dnswire.TypeAAAA, nil
	case "NS":
		return dnswire.TypeNS, nil
	case "CNAME":
		return dnswire.TypeCNAME, nil
	case "SOA":
		return dnswire.TypeSOA, nil
	case "PTR":
		return dnswire.TypePTR, nil
	case "MX":
		return dnswire.TypeMX, nil
	case "TXT":
		return dnswire.TypeTXT, nil
	}
	if n, err := strconv.ParseUint(s, 10, 16); err == nil {
		return dnswire.Type(n), nil
	}
	return 0, fmt.Errorf("unknown type %q", s)
}
