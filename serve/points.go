package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
)

// Create and insert bodies carry the points, up to hundreds of thousands of
// coordinate rows. encoding/json would scan and buffer the whole body, then
// decode the rows by reflection into one small slice each, and on large
// bodies that costs more than the clustering run. So these two bodies get
// their own strict reader: it parses the points array straight into one
// row-major []float64 and hands every other member to encoding/json, one
// member at a time, so the envelope keeps encoding/json's rules
// (DisallowUnknownFields, case-insensitive names, the last duplicate wins)
// and coordinates are the bits strconv.ParseFloat gives, as there.

// flatPoints is a parsed points array: n rows of dims coordinates, row-major
// in data. n is kept apart because rows may be empty (dims 0).
type flatPoints struct {
	data    []float64
	n, dims int
}

// readPoints reads a create or insert body into v, a *CreateSessionRequest
// or *InsertPointsRequest. v's Points stays nil: the points come back flat,
// in a slice fresh to this request that the caller may keep.
func (s *Server) readPoints(r *http.Request, v any) (flatPoints, error) {
	body, err := readBody(r, s.maxBody)
	var pts flatPoints
	if err == nil {
		pts, err = parsePointsBody(body, v)
	}
	if err != nil {
		return flatPoints{}, fmt.Errorf("bad request body: %w", err)
	}
	return pts, nil
}

// readBody reads the whole body, presizing its buffer from Content-Length
// but never past limit: the header is client input, and ServeHTTP's
// MaxBytesReader stops the body at limit anyway.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// MinRead spare bytes leave room for the read that sees EOF.
		buf.Grow(int(min(r.ContentLength, limit)) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}

// parsePointsBody decodes body into v, a pointer to a struct of json-tagged
// fields, one of them [][]float64 for the points. It accepts and rejects
// what a json.Decoder with DisallowUnknownFields accepts and rejects, with
// a further Token required to be io.EOF, except that the points go to the
// returned flatPoints instead of v, and that a null row, a null coordinate
// or rows of different lengths are errors.
func parsePointsBody(body []byte, v any) (flatPoints, error) {
	p := bodyParser{b: body}
	if !p.null() {
		if err := p.object(v); err != nil {
			return flatPoints{}, err
		}
	}
	if p.ws(); p.i < len(p.b) {
		return flatPoints{}, fmt.Errorf("invalid character %q after the JSON value", p.b[p.i])
	}
	if p.bad != nil {
		return flatPoints{}, p.bad
	}
	return p.pts, nil
}

// bodyParser walks one body; i is the offset of the next unread byte.
type bodyParser struct {
	b []byte
	i int
	// pts holds the last points member parsed, and bad its first null row,
	// null coordinate or ragged row. bad is not returned at once: a later
	// points member replaces this one.
	pts flatPoints
	bad error
}

func (p *bodyParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (p *bodyParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null skips whitespace and consumes a null literal if one comes next.
func (p *bodyParser) null() bool {
	p.ws()
	if len(p.b)-p.i >= 4 && string(p.b[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

func (p *bodyParser) syntaxErr(want string) error {
	if p.i >= len(p.b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", p.b[p.i], p.i, want)
}

// object parses the top-level object into v's fields, member by member.
func (p *bodyParser) object(v any) error {
	if !p.eat('{') {
		return p.syntaxErr("an object")
	}
	if p.eat('}') {
		return nil
	}
	fields := fieldsOf(v)
	for {
		if p.ws(); p.i == len(p.b) || p.b[p.i] != '"' {
			return p.syntaxErr("a member name")
		}
		var key string
		if err := p.decode(&key); err != nil {
			return err
		}
		if !p.eat(':') {
			return p.syntaxErr("':'")
		}
		i := 0
		for i < len(fields) && !strings.EqualFold(key, fields[i].name) {
			i++
		}
		if i == len(fields) {
			return fmt.Errorf("json: unknown field %q", key)
		}
		var err error
		if _, ok := fields[i].dst.(*[][]float64); ok {
			err = p.points()
		} else {
			err = p.decode(fields[i].dst)
		}
		if err != nil {
			return err
		}
		if p.eat(',') {
			continue
		}
		if p.eat('}') {
			return nil
		}
		return p.syntaxErr("',' or '}'")
	}
}

// decode hands the value at p.i, a member name or a member other than the
// points, to encoding/json, which decodes it into dst under its own rules
// and finds where it ends.
func (p *bodyParser) decode(dst any) error {
	dec := json.NewDecoder(bytes.NewReader(p.b[p.i:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	p.i += int(dec.InputOffset())
	return nil
}

// field is one member a body may carry: its json name and a pointer to the
// struct field it decodes into.
type field struct {
	name string
	dst  any
}

func fieldsOf(v any) []field {
	rv := reflect.ValueOf(v).Elem()
	fs := make([]field, rv.NumField())
	for i := range fs {
		fs[i].name, _, _ = strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
		fs[i].dst = rv.Field(i).Addr().Interface()
	}
	return fs
}

// points parses a points member, null or an array of coordinate rows, into
// p.pts, replacing any earlier one.
func (p *bodyParser) points() error {
	p.pts, p.bad = flatPoints{data: p.pts.data[:0]}, nil
	if p.null() {
		return nil
	}
	if !p.eat('[') {
		return p.syntaxErr("an array of points")
	}
	if p.eat(']') {
		return nil
	}
	for {
		if err := p.row(); err != nil {
			return err
		}
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return nil
		}
		return p.syntaxErr("',' or ']'")
	}
}

// reject records the first null or ragged row of the current points member.
func (p *bodyParser) reject(format string, args ...any) {
	if p.bad == nil {
		p.bad = fmt.Errorf(format, args...)
	}
}

func (p *bodyParser) row() error {
	r := p.pts.n
	p.pts.n++
	if p.null() {
		p.reject("points row %d is null", r)
		return nil
	}
	if !p.eat('[') {
		return p.syntaxErr("a row of coordinates")
	}
	k := 0
	if !p.eat(']') {
		for {
			if p.null() {
				p.reject("points row %d coordinate %d is null", r, k)
			} else if err := p.number(); err != nil {
				return err
			}
			k++
			if p.eat(',') {
				continue
			}
			if p.eat(']') {
				break
			}
			return p.syntaxErr("',' or ']'")
		}
	}
	if r == 0 {
		p.pts.dims = k
	} else if k != p.pts.dims {
		p.reject("points row %d has %d coords, want %d", r, k, p.pts.dims)
	}
	return nil
}

// number parses a JSON number (RFC 8259: no leading zeros, no '+', digits on
// both sides of a '.') and appends its strconv.ParseFloat value to p.pts.
func (p *bodyParser) number() error {
	b, i := p.b, p.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digitsEnd(b, i)
	if j == i {
		p.i = i
		return p.syntaxErr("a digit")
	}
	if b[i] == '0' {
		j = i + 1 // a leading 0 is the whole integer part; what follows must end it
	}
	if i = j; i < len(b) && b[i] == '.' {
		if j = digitsEnd(b, i+1); j == i+1 {
			p.i = j
			return p.syntaxErr("a digit")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j = digitsEnd(b, i); j == i {
			p.i = i
			return p.syntaxErr("a digit")
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[p.i:i]), 64)
	if err != nil {
		return fmt.Errorf("points coordinate %s: %w", b[p.i:i], errors.Unwrap(err))
	}
	p.pts.data = append(p.pts.data, f)
	p.i = i
	return nil
}

// digitsEnd returns the index past the run of ASCII digits at b[i:].
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
