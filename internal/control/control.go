package control

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Health is the /healthz answer.
type Health struct {
	// Status is "ok" while serving, "draining" during graceful
	// shutdown.
	Status string `json:"status"`
	// Draining mirrors Status for programmatic checks.
	Draining bool `json:"draining"`
	// Clients is the current association count.
	Clients int `json:"clients"`
	// UptimeMS is virtual milliseconds since daemon boot.
	UptimeMS int64 `json:"uptime_ms"`
}

// StationRow is one associated station as reported by /v1/stations.
type StationRow struct {
	AID             uint16   `json:"aid"`
	Addr            string   `json:"addr"`
	HIDECapable     bool     `json:"hide_capable"`
	PSMode          bool     `json:"ps_mode"`
	Members         int      `json:"members"`
	BufferedUnicast int      `json:"buffered_unicast"`
	Ports           []uint16 `json:"ports,omitempty"`
}

// PortTableRow is one Client UDP Port Table entry as reported by
// /v1/porttable.
type PortTableRow struct {
	AID           uint16   `json:"aid"`
	Ports         []uint16 `json:"ports"`
	RefreshedAtMS int64    `json:"refreshed_at_ms"`
}

// Backend is the daemon surface the control plane serves from. Every
// method is called on an HTTP handler goroutine; the daemon proxies
// reads and mutations onto its engine goroutine and answers within a
// bounded time or returns an error.
type Backend interface {
	// Health answers /healthz; it must stay cheap and non-blocking.
	Health() Health
	// Counters snapshots the daemon's live counters (AP stats, hub
	// stats, eviction counts) keyed by metric name.
	Counters() (map[string]int64, error)
	// Stations snapshots the association table in AID order.
	Stations() ([]StationRow, error)
	// PortTable snapshots the Client UDP Port Table in AID order.
	PortTable() ([]PortTableRow, error)
	// ApplyFault installs a compiled fault request on the live link: a
	// clear request removes the active plan.
	ApplyFault(req *FaultRequest) error
	// RestartAP power-cycles the AP entity (soft state wiped, TSF
	// reset) — the live equivalent of the chaos grid's restart.
	RestartAP() error
	// InjectGroup enqueues count broadcast frames to a UDP port.
	InjectGroup(port uint16, count int) error
	// Reload re-reads the config file and applies the reloadable
	// subset, returning a human-readable summary of what changed.
	Reload() (string, error)
}

// Server routes the control-plane endpoints to a Backend.
type Server struct {
	backend Backend
	mux     *http.ServeMux
}

// maxBodyBytes bounds control-plane request bodies.
const maxBodyBytes = 1 << 20

// NewServer builds the control plane for a backend.
func NewServer(b Backend) *Server {
	s := &Server{backend: b, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/counters", s.handleCounters)
	s.mux.HandleFunc("/v1/stations", s.handleStations)
	s.mux.HandleFunc("/v1/porttable", s.handlePortTable)
	s.mux.HandleFunc("/v1/fault", s.handleFault)
	s.mux.HandleFunc("/v1/restart", s.handleRestart)
	s.mux.HandleFunc("/v1/inject", s.handleInject)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	return s
}

// Handler returns the control plane's http.Handler; the daemon owns
// the http.Server wrapping it.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON answers with a JSON document.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//lint:ignore errdrop the client hung up; nothing to do about an encode-to-wire error
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers with {"error": ...}.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// readBody drains a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	//lint:ignore errdrop net/http closes request bodies itself; this close only releases the MaxBytesReader early
	defer r.Body.Close()
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("control: reading body: %w", err)
	}
	return data, nil
}

// requireMethod answers false (and writes the error) when the request
// method is not m.
func requireMethod(w http.ResponseWriter, r *http.Request, m string) bool {
	if r.Method != m {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("control: %s requires %s", r.URL.Path, m))
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, s.backend.Health())
}

// handleMetrics renders the counters in the Prometheus text
// exposition format, plus the hided_up gauge and drain state.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	counters, err := s.backend.Counters()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	h := s.backend.Health()
	var b strings.Builder
	b.WriteString("# HELP hided_up Whether the daemon is serving (1) or draining (0).\n")
	b.WriteString("# TYPE hided_up gauge\n")
	up := 1
	if h.Draining {
		up = 0
	}
	fmt.Fprintf(&b, "hided_up %d\n", up)
	b.WriteString("# HELP hided_clients Currently associated stations.\n")
	b.WriteString("# TYPE hided_clients gauge\n")
	fmt.Fprintf(&b, "hided_clients %d\n", h.Clients)
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "hided_" + name
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", metric, metric, counters[name])
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.WriteHeader(http.StatusOK)
	//lint:ignore errdrop the scraper hung up; the next scrape retries
	_, _ = io.WriteString(w, b.String())
}

func (s *Server) handleCounters(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	counters, err := s.backend.Counters()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, counters)
}

func (s *Server) handleStations(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	rows, err := s.backend.Stations()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handlePortTable(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	rows, err := s.backend.PortTable()
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleFault validates and installs (or clears) a fault plan. The
// body is compiled before it touches the backend, so a malformed plan
// can never reach the live link half-built.
func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	data, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req FaultRequest
	if err := DecodeJSON(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("control: bad request body: %w", err))
		return
	}
	if _, err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.backend.ApplyFault(&req); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true, "cleared": req.Clear})
}

func (s *Server) handleRestart(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if err := s.backend.RestartAP(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	data, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req InjectRequest
	if err := DecodeJSON(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("control: bad request body: %w", err))
		return
	}
	if req.Port == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("control: inject needs a nonzero port"))
		return
	}
	count := req.Count
	if count == 0 {
		count = 1
	}
	if count < 0 || count > 10000 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("control: inject count %d outside [1,10000]", count))
		return
	}
	if err := s.backend.InjectGroup(req.Port, count); err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "count": count})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	summary, err := s.backend.Reload()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "reloaded", "summary": summary})
}
