package control

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stubBackend is an in-memory Backend for handler tests.
type stubBackend struct {
	health    Health
	counters  map[string]int64
	stations  []StationRow
	porttable []PortTableRow
	faults    []*FaultRequest
	restarts  int
	injected  []InjectRequest
	reloads   int
	fail      error // when set, every fallible method fails
}

func (b *stubBackend) Health() Health { return b.health }
func (b *stubBackend) Counters() (map[string]int64, error) {
	if b.fail != nil {
		return nil, b.fail
	}
	return b.counters, nil
}
func (b *stubBackend) Stations() ([]StationRow, error) {
	if b.fail != nil {
		return nil, b.fail
	}
	return b.stations, nil
}
func (b *stubBackend) PortTable() ([]PortTableRow, error) {
	if b.fail != nil {
		return nil, b.fail
	}
	return b.porttable, nil
}
func (b *stubBackend) ApplyFault(req *FaultRequest) error {
	if b.fail != nil {
		return b.fail
	}
	b.faults = append(b.faults, req)
	return nil
}
func (b *stubBackend) RestartAP() error {
	if b.fail != nil {
		return b.fail
	}
	b.restarts++
	return nil
}
func (b *stubBackend) InjectGroup(port uint16, count int) error {
	if b.fail != nil {
		return b.fail
	}
	b.injected = append(b.injected, InjectRequest{Port: port, Count: count})
	return nil
}
func (b *stubBackend) Reload() (string, error) {
	if b.fail != nil {
		return "", b.fail
	}
	b.reloads++
	return "nothing changed", nil
}

func newTestServer(t *testing.T) (*stubBackend, *httptest.Server) {
	t.Helper()
	b := &stubBackend{
		health: Health{Status: "ok", Clients: 3, UptimeMS: 1234},
		counters: map[string]int64{
			"beacons_sent_total": 42,
			"evictions_total":    1,
		},
		stations:  []StationRow{{AID: 1, Addr: "02:00:00:00:00:10", HIDECapable: true, Members: 1}},
		porttable: []PortTableRow{{AID: 1, Ports: []uint16{5353}, RefreshedAtMS: 900}},
	}
	ts := httptest.NewServer(NewServer(b).Handler())
	t.Cleanup(ts.Close)
	return b, ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, sb.String()
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, readAll(t, resp)
}

func TestHealthzEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var h Health
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("unparseable health: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Clients != 3 || h.UptimeMS != 1234 {
		t.Fatalf("health drifted: %+v", h)
	}
	if code, _ := post(t, ts.URL+"/healthz", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", code)
	}
}

func TestMetricsEndpointWellFormed(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	for _, want := range []string{
		"# TYPE hided_up gauge",
		"hided_up 1",
		"hided_clients 3",
		"hided_beacons_sent_total 42",
		"hided_evictions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
	// Every non-comment line is "name value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Fields(line)
		if len(parts) != 2 || !strings.HasPrefix(parts[0], "hided_") {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestStationsAndPortTableEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/stations")
	if code != http.StatusOK {
		t.Fatalf("stations status %d", code)
	}
	var rows []StationRow
	if err := json.Unmarshal([]byte(body), &rows); err != nil || len(rows) != 1 || rows[0].AID != 1 {
		t.Fatalf("stations drifted: %v %s", err, body)
	}
	code, body = get(t, ts.URL+"/v1/porttable")
	if code != http.StatusOK {
		t.Fatalf("porttable status %d", code)
	}
	var pt []PortTableRow
	if err := json.Unmarshal([]byte(body), &pt); err != nil || len(pt) != 1 || pt[0].Ports[0] != 5353 {
		t.Fatalf("porttable drifted: %v %s", err, body)
	}
}

func TestFaultEndpoint(t *testing.T) {
	b, ts := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/fault",
		`{"seed":7,"plan":{"kind":"window","from_ms":0,"until_ms":500,"inner":{"kind":"loss","p":0.8}}}`)
	if code != http.StatusOK {
		t.Fatalf("install status %d: %s", code, body)
	}
	code, _ = post(t, ts.URL+"/v1/fault", `{"clear":true}`)
	if code != http.StatusOK {
		t.Fatalf("clear status %d", code)
	}
	if len(b.faults) != 2 || b.faults[0].Seed != 7 || !b.faults[1].Clear {
		t.Fatalf("backend saw %+v", b.faults)
	}
	// Malformed bodies: rejected before the backend sees them.
	for _, bad := range []string{
		``, `{`, `[]`, `{"plan":{"kind":"nope"}}`,
		`{"plan":{"kind":"loss","p":7}}`,
		`{"unknown_field":1,"plan":{"kind":"loss","p":0.5}}`,
		`{"plan":{"kind":"loss","p":0.5}} trailing`,
		// A stray closing delimiter after a valid body.
		`{"clear":true}}`, `{"clear":true}]`,
	} {
		code, _ := post(t, ts.URL+"/v1/fault", bad)
		if code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", bad, code)
		}
	}
	if len(b.faults) != 2 {
		t.Fatalf("malformed body reached the backend: %+v", b.faults)
	}
	if code, _ := get(t, ts.URL+"/v1/fault"); code != http.StatusMethodNotAllowed {
		t.Fatal("GET /v1/fault accepted")
	}
}

func TestInjectAndRestartEndpoints(t *testing.T) {
	b, ts := newTestServer(t)
	if code, body := post(t, ts.URL+"/v1/inject", `{"port":5353,"count":3}`); code != http.StatusOK {
		t.Fatalf("inject status %d: %s", code, body)
	}
	if code, _ := post(t, ts.URL+"/v1/inject", `{"port":5353}`); code != http.StatusOK {
		t.Fatal("default-count inject rejected")
	}
	if len(b.injected) != 2 || b.injected[0].Count != 3 || b.injected[1].Count != 1 {
		t.Fatalf("backend saw %+v", b.injected)
	}
	for _, bad := range []string{`{}`, `{"port":0}`, `{"port":53,"count":-1}`, `{"port":53,"count":99999}`, `{"port":1}}`, `{"port":1}]`} {
		if code, _ := post(t, ts.URL+"/v1/inject", bad); code != http.StatusBadRequest {
			t.Errorf("inject body %q accepted", bad)
		}
	}
	if code, _ := post(t, ts.URL+"/v1/restart", ""); code != http.StatusOK {
		t.Fatal("restart failed")
	}
	if b.restarts != 1 {
		t.Fatalf("restarts = %d", b.restarts)
	}
}

func TestReloadEndpointAndBackendErrors(t *testing.T) {
	b, ts := newTestServer(t)
	if code, _ := post(t, ts.URL+"/v1/reload", ""); code != http.StatusOK {
		t.Fatal("reload failed")
	}
	if b.reloads != 1 {
		t.Fatalf("reloads = %d", b.reloads)
	}
	b.fail = fmt.Errorf("engine stopped")
	for path, method := range map[string]string{
		"/v1/counters":  http.MethodGet,
		"/v1/stations":  http.MethodGet,
		"/v1/porttable": http.MethodGet,
		"/v1/restart":   http.MethodPost,
	} {
		var code int
		if method == http.MethodGet {
			code, _ = get(t, ts.URL+path)
		} else {
			code, _ = post(t, ts.URL+path, "")
		}
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s with failing backend = %d, want 503", path, code)
		}
	}
	if code, _ := post(t, ts.URL+"/v1/reload", ""); code != http.StatusUnprocessableEntity {
		t.Error("reload error not mapped to 422")
	}
}
