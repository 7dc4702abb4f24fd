package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
)

// FuzzSubmitRequest drives arbitrary POST /v1/sessions bodies through the
// node's DecodeSubmit and, beside it, json.Unmarshal. Both must accept or
// both reject, with the same error; an accepted body must decode to the
// same value, Float64bits for Float64bits, nil and empty slices told
// apart; and a body the one-pass decoder takes must be one json accepts.
// The one exemption is a body DecodeSubmit refuses as past a session cap,
// which must hold more objects than core.MaxSessionStops.
// Nothing may panic, and every session Validate accepts must be one the
// solver can index: a sample rate within the session caps, a probe, an IMU log,
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
		// One-pass edges: whitespace, number forms, escapes, repeats.
		" {\"user\" :\"a\"\n,\"input\":{\"Probe\":[ -0,1E+2 ,2.5e-3],\"SystemIR\":null}}\t",
		`{"user":"aé","input":{"Probe":[1]}}`,
		`{"user":"a","input":{"Probe":[1],"Probe":[2]}}`,
		`{"user":"a","input":{"Probe":[01,1.,.5,-,1e,1e+]}}`,
		`{"user":"a","input":{"SampleRate":1e-400,"SyncOffset":-1.7976931348623157e308}}`,
		`{"user":"a","input":{"Probe":[,,,,0]}}`,
		`{"user":"a","input":{"Probe":[1,[2]]}}`,
		`{"user":"a","input":{"IMU":[{"T":1,"RateZ":2,"T":3}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var one, ref, got SubmitRequest
		refErr := json.Unmarshal(body, &ref)
		if onePass(body, &one) {
			if refErr != nil {
				t.Fatalf("one pass accepted a body json rejects: %v", refErr)
			}
			if !sameSubmit(&one, &ref) {
				t.Fatalf("one-pass decode %+v, json.Unmarshal %+v", one, ref)
			}
		}
		_, err := DecodeSubmit(body, &got)
		if errors.Is(err, core.ErrInvalidSession) {
			if n := bytes.Count(body, []byte{'{'}); n <= core.MaxSessionStops {
				t.Fatalf("refused a body of %d objects as past a session cap: %v", n, err)
			}
			return
		}
		if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
			t.Fatalf("DecodeSubmit error %v, json.Unmarshal error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameSubmit(&got, &ref) {
			t.Fatalf("DecodeSubmit %+v, json.Unmarshal %+v", got, ref)
		}
		in := got.Input
		if in.Validate() != nil {
			return
		}
		if !(in.SampleRate >= core.MinSessionSampleRate && in.SampleRate <= core.MaxSessionSampleRate) {
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
