package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDatasetAppendMode: PUT ?mode=append sums a delta stream into the
// resident dataset; releases afterwards match a single combined upload
// byte for byte, and bad modes or mismatched schemas are 400s.
func TestDatasetAppendMode(t *testing.T) {
	s := newTestServer(t, testConfig())
	ndjson := testNDJSON(t)
	lines := strings.SplitN(ndjson, "\n", 2)
	header := lines[0]

	if rec := putDataset(t, s, "people", ndjson); rec.Code != http.StatusCreated {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	delta := header + "\n[2,1,3]\n[2,1,3]\n[0,0,0]\n"
	req := httptest.NewRequest(http.MethodPut, "/v1/datasets/people?mode=append", strings.NewReader(delta))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("append: %d %s", rec.Code, rec.Body.String())
	}
	var info struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Rows != 303 {
		t.Fatalf("appended dataset reports %d rows, want 303", info.Rows)
	}

	// A second server fed the combined stream must release identically.
	s2 := newTestServer(t, testConfig())
	if rec := putDataset(t, s2, "people", ndjson+"[2,1,3]\n[2,1,3]\n[0,0,0]\n"); rec.Code != http.StatusCreated {
		t.Fatalf("combined PUT: %d %s", rec.Code, rec.Body.String())
	}
	body := testBody(nil)
	delete(body, "rows")
	delete(body, "schema")
	body["dataset_id"] = "people"
	ra := post(t, s, "/v1/release", body)
	rb := post(t, s2, "/v1/release", body)
	if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
		t.Fatalf("releases: %d / %d", ra.Code, rb.Code)
	}
	var a, b map[string]json.RawMessage
	if err := json.Unmarshal(ra.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rb.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "budget")
	delete(b, "budget")
	for k := range a {
		if string(a[k]) != string(b[k]) {
			t.Fatalf("append vs combined upload: field %q differs", k)
		}
	}

	// Unknown mode is a 400.
	req = httptest.NewRequest(http.MethodPut, "/v1/datasets/people?mode=merge", strings.NewReader(delta))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mode=merge: %d, want 400", rec.Code)
	}
	// Append to a missing dataset is a 404.
	req = httptest.NewRequest(http.MethodPut, "/v1/datasets/ghost?mode=append", strings.NewReader(delta))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("append to missing dataset: %d, want 404", rec.Code)
	}
	// Mismatched schema is a 400 and changes nothing.
	bad := `{"schema":[{"name":"color","cardinality":3}]}` + "\n[1]\n"
	req = httptest.NewRequest(http.MethodPut, "/v1/datasets/people?mode=append", strings.NewReader(bad))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("append with mismatched schema: %d, want 400", rec.Code)
	}
	if rec := do(t, s, http.MethodGet, "/v1/datasets/people"); !strings.Contains(rec.Body.String(), `"rows":303`) {
		t.Fatalf("failed appends changed the dataset: %s", rec.Body.String())
	}
}
