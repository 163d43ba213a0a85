package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"

	"usersignals/internal/leo"
	"usersignals/internal/newswire"
	"usersignals/internal/usaas"
)

// usaasdAnnotations builds the constellation model and news index exactly as
// cmd/usaasd does for its own server and coordinator.
func usaasdAnnotations() (*leo.Model, *newswire.Index) {
	model := leo.NewModel()
	return model, newswire.Build(model.Launches(), leo.MajorOutages(), leo.DefaultMilestones())
}

// newReferenceServer is a single in-memory node wired as cmd/usaasd wires
// its own: the same model and news, every other option at its default.
func newReferenceServer(store *usaas.Store) *usaas.Server {
	model, news := usaasdAnnotations()
	return usaas.NewServer(store, usaas.ServerOptions{Model: model, News: news})
}

// serve sends one request through an in-process handler.
func serve(h http.Handler, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkAgainstReference feeds the batches the daemons hold to an in-process
// node over the same wire bodies and compares all 13 dashboard answers byte
// for byte. A cluster must match the single node too: that is its contract.
func (r *run) checkAgainstReference(ctx context.Context) error {
	ref := newReferenceServer(&usaas.Store{}).Handler()
	for i, b := range r.state {
		if rec := serve(ref, http.MethodPost, b.path(), b.contentType(), b.body); rec.Code != http.StatusOK {
			return fmt.Errorf("reference rejected preload batch %d: %d %.200s", i, rec.Code, rec.Body.Bytes())
		}
	}
	got := r.cl.refresh(ctx)
	for i, ep := range dashboard {
		want := serve(ref, http.MethodGet, ep.Path, "", nil)
		switch {
		case want.Code != http.StatusOK:
			r.ops.fail("reference %s: status %d: %.200s", ep.Name, want.Code, want.Body.Bytes())
		case !bytes.Equal(got.bodies[i], want.Body.Bytes()):
			r.ops.fail("%s differs from the in-process reference (%d vs %d bytes)", ep.Name, len(got.bodies[i]), want.Body.Len())
		default:
			r.ops.ok()
		}
	}
	return nil
}
