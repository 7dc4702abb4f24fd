package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzSubmitRequest drives arbitrary POST /v1/sessions bodies through the
// node's decodeBody (its body reader and JSON decode) into a SubmitRequest
// and SessionInput.Validate.
// Nothing may panic, and every session Validate accepts must be one the
// solver can index: a finite positive sample rate, a probe, an IMU log,
// and at least one stop whose two channels are non-empty and equally long.
func FuzzSubmitRequest(f *testing.F) {
	valid, err := json.Marshal(SubmitRequest{User: "alice", Input: tinySession()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, s := range []string{
		`{"user":"a","input":{"Probe":[1],"SampleRate":48000,"Stops":[{"Left":[1],"Right":[1,2]}],"IMU":[{}]}}`,
		`{"user":"a","input":{"Probe":[1],"SampleRate":-1,"Stops":[{"Left":[1],"Right":[1]}],"IMU":[{}]}}`,
		`{"user":"a","input":{"Probe":[1],"SampleRate":1e400,"Stops":[{"Left":[1],"Right":[1]}],"IMU":[{}]}}`,
		`{"user":"a","input":{"probe":[1],"samplerate":5e-324,"stops":[{"left":[0],"right":[0]}],"imu":[{"t":1e308}]}}`,
		`{"user":"a","input":{"Probe":[],"SampleRate":48000,"Stops":[],"IMU":[]}}`,
		`{"user":"a","input":{"Stops":[null,{"Left":null}]}}`,
		`{"input":null}`,
		`[]`,
		`not json`,
		`{"user":"a","input":{}} {"user":"b"}`,
	} {
		f.Add([]byte(s))
	}
	node := &Service{bodies: NewBodyReader(64 << 20)}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(body))
		if !node.decodeBody(httptest.NewRecorder(), r, &req) {
			return
		}
		in := req.Input
		if in.Validate() != nil {
			return
		}
		if math.IsNaN(in.SampleRate) || math.IsInf(in.SampleRate, 0) || in.SampleRate <= 0 {
			t.Fatalf("accepted sample rate %v", in.SampleRate)
		}
		if len(in.Probe) == 0 || len(in.IMU) == 0 || len(in.Stops) == 0 {
			t.Fatalf("accepted a session without a probe, IMU log or stop: %d/%d/%d samples",
				len(in.Probe), len(in.IMU), len(in.Stops))
		}
		for i, s := range in.Stops {
			if len(s.Left) == 0 || len(s.Left) != len(s.Right) {
				t.Fatalf("accepted stop %d with channels of %d and %d samples", i, len(s.Left), len(s.Right))
			}
		}
	})
}
