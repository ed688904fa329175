// Package fixture exercises the httptest rule: a non-test file outside
// bench/ that imports net/http/httptest is reported.
package fixture

import "net/http/httptest" // want `httptest: non-test file outside bench/ imports net/http/httptest`

var _ = httptest.NewRecorder
