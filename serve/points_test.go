package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// bodyCase is one raw request body against one endpoint. For create and
// insert cases that succeed, n and dims are the points the session holds
// (create) and n the ids returned (insert).
type bodyCase struct {
	name     string
	endpoint string // "create", "insert", "remove", "window" or "runs"
	body     string
	status   int
	n, dims  int
}

// bodyCases pins the request-body contract of every JSON endpoint. Rows
// marked "was" returned that status before trailing data and null
// coordinates were rejected.
var bodyCases = []bodyCase{
	{"batch", "create", `{"kind":"batch","eps":1,"points":[[1,2],[3,4]]}`, 201, 2, 2},
	{"batch 3d", "create", `{"kind":"batch","eps":1,"points":[[1,2,3],[4,5,6]]}`, 201, 2, 3},
	{"case-folded keys", "create", `{"KIND":"batch","Eps":1,"Points":[[1,2],[3,4]]}`, 201, 2, 2},
	{"kelvin sign key", "create", "{\"\u212aind\":\"batch\",\"eps\":1,\"points\":[[1,2]]}", 201, 1, 2},
	{"long s key", "create", "{\"kind\":\"batch\",\"ep\u017f\":1,\"points\":[[1,2]]}", 201, 1, 2},
	{"escaped key", "create", `{"kind":"batch","eps":1,"\u0070oints":[[1,2]]}`, 201, 1, 2},
	{"duplicate points", "create", `{"kind":"batch","eps":1,"points":[[9,9,9]],"points":[[1,2],[3,4]]}`, 201, 2, 2},
	{"duplicate points replace a null row", "create", `{"kind":"batch","eps":1,"points":[null],"points":[[1,2]]}`, 201, 1, 2},
	{"points then null", "create", `{"kind":"batch","eps":1,"points":[[1,2]],"points":null}`, 400, 0, 0},
	{"null eps keeps the first", "create", `{"kind":"batch","eps":1,"eps":null,"points":[[1,2]]}`, 201, 1, 2},
	{"number forms", "create", `{"kind":"batch","eps":1,"points":[[-0,1E+2],[1e-400,0.5e1]]}`, 201, 2, 2},
	{"ragged rows", "create", `{"kind":"batch","eps":1,"points":[[1,2],[3]]}`, 400, 0, 0},
	{"null row", "create", `{"kind":"batch","eps":1,"points":[[1,2],null]}`, 400, 0, 0},
	{"null coordinate", "create", `{"kind":"batch","eps":1,"points":[[1,null],[3,4]]}`, 400, 0, 0}, // was 201
	{"string coordinate", "create", `{"kind":"batch","eps":1,"points":[[1,"2"]]}`, 400, 0, 0},
	{"bool coordinate", "create", `{"kind":"batch","eps":1,"points":[[1,true]]}`, 400, 0, 0},
	{"object coordinate", "create", `{"kind":"batch","eps":1,"points":[[1,{}]]}`, 400, 0, 0},
	{"row not an array", "create", `{"kind":"batch","eps":1,"points":[1,2]}`, 400, 0, 0},
	{"1e400", "create", `{"kind":"batch","eps":1,"points":[[1e400,2]]}`, 400, 0, 0},
	{"leading zero", "create", `{"kind":"batch","eps":1,"points":[[01,2]]}`, 400, 0, 0},
	{"plus sign", "create", `{"kind":"batch","eps":1,"points":[[+1,2]]}`, 400, 0, 0},
	{"bare fraction", "create", `{"kind":"batch","eps":1,"points":[[.5,2]]}`, 400, 0, 0},
	{"trailing dot", "create", `{"kind":"batch","eps":1,"points":[[1.,2]]}`, 400, 0, 0},
	{"trailing whitespace", "create", "{\"kind\":\"batch\",\"eps\":1,\"points\":[[1,2]]}\n \t\r\n", 201, 1, 2},
	{"trailing data", "create", `{"kind":"batch","eps":1,"points":[[1,2],[3,4]]} garbage`, 400, 0, 0}, // was 201
	{"second value", "create", `{"kind":"batch","eps":1,"points":[[1,2]]}{}`, 400, 0, 0},              // was 201
	{"unknown field", "create", `{"kind":"batch","eps":1,"points":[[1,2]],"color":"red"}`, 400, 0, 0},
	{"top-level null", "create", `null`, 400, 0, 0},
	{"empty body", "create", ``, 400, 0, 0},
	{"not an object", "create", `[[1,2]]`, 400, 0, 0},
	{"batch without points", "create", `{"kind":"batch","eps":1}`, 400, 0, 0},
	{"empty points", "create", `{"kind":"batch","eps":1,"points":[]}`, 400, 0, 0},
	{"empty row", "create", `{"kind":"batch","eps":1,"points":[[]]}`, 400, 0, 0},
	{"unterminated", "create", `{"kind":"batch","eps":1,"points":[[1,2]]`, 400, 0, 0},
	{"escape at the end", "create", `{"kind":"000\`, 400, 0, 0},

	{"streaming", "create", `{"kind":"streaming","eps":1,"dims":2}`, 201, 0, 2},
	{"streaming with points", "create", `{"kind":"streaming","eps":1,"points":[[1,2],[3,4],[5,6]]}`, 201, 3, 2},
	{"streaming with dims and points", "create", `{"kind":"streaming","eps":1,"dims":2,"points":[[1,2],[3,4],[5,6]]}`, 201, 3, 2},
	{"streaming dims mismatch", "create", `{"kind":"streaming","eps":1,"dims":3,"points":[[1,2],[3,4],[5,6]]}`, 400, 0, 0},
	{"streaming empty points", "create", `{"kind":"streaming","eps":1,"dims":2,"points":[]}`, 201, 0, 2},
	{"streaming null coordinate", "create", `{"kind":"streaming","eps":1,"points":[[1,null]]}`, 400, 0, 0}, // was 201
	{"streaming null row", "create", `{"kind":"streaming","eps":1,"dims":2,"points":[null]}`, 400, 0, 0},
	{"streaming ragged rows", "create", `{"kind":"streaming","eps":1,"points":[[1,2],[3]]}`, 400, 0, 0},
	{"dims as a float", "create", `{"kind":"streaming","eps":1,"dims":2.0}`, 400, 0, 0},
	{"streaming trailing data", "create", `{"kind":"streaming","eps":1,"dims":2} x`, 400, 0, 0}, // was 201

	{"hierarchy", "create", `{"kind":"hierarchy","eps":1,"min_pts":2,"points":[[1,2],[3,4]]}`, 201, 2, 2},
	{"min_pts as an exponent", "create", `{"kind":"hierarchy","eps":1,"min_pts":1e2,"points":[[1,2]]}`, 400, 0, 0},
	{"hierarchy without points", "create", `{"kind":"hierarchy","eps":1,"min_pts":2}`, 400, 0, 0},
	{"hierarchy ragged rows", "create", `{"kind":"hierarchy","eps":1,"min_pts":2,"points":[[1,2],[3]]}`, 400, 0, 0},

	{"insert", "insert", `{"points":[[1,2],[3,4]]}`, 200, 2, 0},
	{"insert case-folded key", "insert", `{"POINTS":[[1,2]]}`, 200, 1, 0},
	{"insert empty", "insert", `{"points":[]}`, 200, 0, 0},
	{"insert null points", "insert", `{"points":null}`, 200, 0, 0},
	{"insert top-level null", "insert", `null`, 200, 0, 0},
	{"insert dims mismatch", "insert", `{"points":[[1,2,3],[4,5,6]]}`, 400, 0, 0},
	{"insert ragged rows", "insert", `{"points":[[1,2],[3]]}`, 400, 0, 0},
	{"insert null coordinate", "insert", `{"points":[[1,null]]}`, 400, 0, 0}, // was 200
	{"insert null row", "insert", `{"points":[null]}`, 400, 0, 0},
	{"insert string coordinate", "insert", `{"points":[["1",2]]}`, 400, 0, 0},
	{"insert 1e400", "insert", `{"points":[[1e400,2]]}`, 400, 0, 0},
	{"insert unknown field", "insert", `{"points":[[1,2]],"kind":"batch"}`, 400, 0, 0},
	{"insert trailing whitespace", "insert", "{\"points\":[[1,2]]}\n", 200, 1, 0},
	{"insert trailing data", "insert", `{"points":[[1,2]]} x`, 400, 0, 0}, // was 200
	{"insert empty body", "insert", ``, 400, 0, 0},

	{"remove", "remove", "{\"ids\":[]}\n", 200, 0, 0},
	{"remove trailing data", "remove", `{"ids":[]} x`, 400, 0, 0}, // was 200
	{"window", "window", "{\"n\":1000}\n", 200, 0, 0},
	{"window trailing data", "window", `{"n":1000} x`, 400, 0, 0}, // was 200
	{"runs", "runs", "{\"config\":{\"min_pts\":1},\"wait\":true}\n", 200, 0, 0},
	{"runs trailing data", "runs", `{"config":{"min_pts":1},"wait":true} trailing`, 400, 0, 0}, // was 200
	{"runs second value", "runs", `{"config":{"min_pts":1},"wait":true}{}`, 400, 0, 0},         // was 200
}

func TestRequestBodyContract(t *testing.T) {
	_, tc, done := newTestServer(t, Options{})
	defer done()
	stream := tc.createSession(CreateSessionRequest{Kind: "streaming", Eps: 1, Dims: 2})
	batch := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 1, Points: [][]float64{{0, 0}, {1, 1}}})
	paths := map[string]string{
		"create": "/v1/sessions",
		"insert": "/v1/sessions/" + stream.ID + "/points",
		"remove": "/v1/sessions/" + stream.ID + "/points",
		"window": "/v1/sessions/" + stream.ID + "/window",
		"runs":   "/v1/sessions/" + batch.ID + "/runs",
	}
	for _, c := range bodyCases {
		method := "POST"
		if c.endpoint == "remove" {
			method = "DELETE"
		}
		var out struct {
			SessionInfo
			IDs []int64 `json:"ids"`
		}
		resp := tc.do(method, paths[c.endpoint], []byte(c.body), &out)
		switch {
		case resp.StatusCode != c.status:
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		case c.endpoint == "create" && c.status == 201 && (out.NumPoints != c.n || out.Dims != c.dims):
			t.Errorf("%s: session holds %d points of %d dims, want %d of %d", c.name, out.NumPoints, out.Dims, c.n, c.dims)
		case c.endpoint == "insert" && c.status == 200 && (out.IDs == nil || len(out.IDs) != c.n):
			t.Errorf("%s: inserted ids %v, want %d", c.name, out.IDs, c.n)
		}
	}
}

// TestMaxBodyBytes pins the body limit: a larger body is a 413 on the strict
// reader (create) and on decodeJSON (runs), an insert on a batch session is
// rejected before its body is read, and a Content-Length claiming more than
// the limit does not make the server allocate more.
func TestMaxBodyBytes(t *testing.T) {
	const limit = 1 << 10
	srv, tc, done := newTestServer(t, Options{MaxBodyBytes: limit})
	defer done()

	big, err := json.Marshal(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(200, 1)})
	if err != nil {
		t.Fatal(err)
	}
	tc.expect("POST", "/v1/sessions", big, http.StatusRequestEntityTooLarge, nil)
	sess := tc.createSession(CreateSessionRequest{Kind: "batch", Eps: 3, Points: genPoints(10, 2)})
	run := append([]byte(`{"config":{"min_pts":3},"wait":true}`), bytes.Repeat([]byte(" "), limit)...)
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs", run, http.StatusRequestEntityTooLarge, nil)
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/runs", run[:limit], http.StatusOK, nil)
	tc.expect("POST", "/v1/sessions/"+sess.ID+"/points", big, http.StatusBadRequest, nil)

	// allocated returns the mean bytes one create of the big body allocates
	// when its Content-Length header claims contentLength.
	allocated := func(contentLength int64) uint64 {
		const reps = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range reps {
			req := httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(big))
			req.ContentLength = contentLength
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("Content-Length %d: status %d, want 413", contentLength, rec.Code)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	honest, lying := allocated(int64(len(big))), allocated(DefaultMaxBodyBytes)
	if lying > honest+limit {
		t.Fatalf("a Content-Length of %d made a create allocate %d bytes, against %d for the true length", DefaultMaxBodyBytes, lying, honest)
	}
}

// createMirror and insertMirror are FuzzPointsBody's reference shapes: the
// wire types with pointer coordinates, so null rows and coordinates show.
type createMirror struct {
	Kind    string       `json:"kind"`
	Eps     float64      `json:"eps"`
	Points  [][]*float64 `json:"points,omitempty"`
	Dims    int          `json:"dims,omitempty"`
	MinPts  int          `json:"min_pts,omitempty"`
	Workers int          `json:"workers,omitempty"`
}

type insertMirror struct {
	Points [][]*float64 `json:"points"`
}

// decodeReference decodes body into a mirror as decodeJSON decodes into
// the wire type, then rejects what the strict reader rejects on top: null
// rows, null coordinates, and rows of different lengths.
func decodeReference(body []byte, v any, points *[][]*float64) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data (%v)", err)
	}
	for i, row := range *points {
		if row == nil || len(row) != len((*points)[0]) {
			return fmt.Errorf("row %d is null or ragged", i)
		}
		for _, c := range row {
			if c == nil {
				return fmt.Errorf("row %d has a null coordinate", i)
			}
		}
	}
	return nil
}

// samePoints reports whether the reader's flat points are the reference's,
// bit for bit.
func samePoints(pts flatPoints, ref [][]*float64) bool {
	if pts.n != len(ref) || len(pts.data) != pts.n*pts.dims {
		return false
	}
	for i, row := range ref {
		if len(row) != pts.dims {
			return false
		}
		for j, c := range row {
			if math.Float64bits(*c) != math.Float64bits(pts.data[i*pts.dims+j]) {
				return false
			}
		}
	}
	return true
}

// FuzzPointsBody feeds the same bodies to the strict reader and to
// encoding/json, in both body shapes: both must accept or reject each body,
// and on accept give equal fields and bit-identical points.
func FuzzPointsBody(f *testing.F) {
	tags := func(v any) (ts []reflect.StructTag) {
		t := reflect.TypeOf(v)
		for i := range t.NumField() {
			ts = append(ts, t.Field(i).Tag)
		}
		return ts
	}
	if !slices.Equal(tags(CreateSessionRequest{}), tags(createMirror{})) ||
		!slices.Equal(tags(InsertPointsRequest{}), tags(insertMirror{})) {
		f.Fatal("the reference mirrors no longer carry the wire types' json tags")
	}
	for _, c := range bodyCases {
		if c.endpoint == "create" || c.endpoint == "insert" {
			f.Add([]byte(c.body))
		}
	}
	for _, s := range []string{
		"{\"ep\u017f\":1}",
		`{"\u0070oints":[[1,2]]}`,
		`{"points":[[1,2]],"points":null}`,
		`{"eps":1,"eps":null}`,
		`{"points":[[-0,1E+2,1e-400]]}`,
		`{"points":[[-1e400]]}`,
		`{"points":[[1,2],[3,4]],"points":[[5]]}`,
		`{"points":[[1,null]],"points":[[1,2]]}`,
	} {
		f.Add([]byte(s))
	}
	valid := `{"kind":"batch","eps":1.5,"dims":2,"min_pts":3,"workers":1,"points":[[1,-2.5e3],[0,4]]}`
	for i := range valid {
		f.Add([]byte(valid[:i]))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req CreateSessionRequest
		pts, err := parsePointsBody(body, &req)
		var ref createMirror
		refErr := decodeReference(body, &ref, &ref.Points)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("create body %q: reader error %v, encoding/json error %v", body, err, refErr)
		}
		if err == nil && (req.Kind != ref.Kind || math.Float64bits(req.Eps) != math.Float64bits(ref.Eps) ||
			req.Dims != ref.Dims || req.MinPts != ref.MinPts || req.Workers != ref.Workers ||
			req.Points != nil || !samePoints(pts, ref.Points)) {
			t.Fatalf("create body %q: reader gave %+v and %+v, encoding/json %+v", body, req, pts, ref)
		}

		var ins InsertPointsRequest
		pts, err = parsePointsBody(body, &ins)
		var iref insertMirror
		refErr = decodeReference(body, &iref, &iref.Points)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("insert body %q: reader error %v, encoding/json error %v", body, err, refErr)
		}
		if err == nil && (ins.Points != nil || !samePoints(pts, iref.Points)) {
			t.Fatalf("insert body %q: reader gave %+v, encoding/json %+v", body, pts, iref)
		}
	})
}
