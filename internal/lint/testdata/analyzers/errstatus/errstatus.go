// Package fixture exercises the errstatus analyzer: engine API errors must
// reach the fail error→status table, never the ad-hoc httpError writer, and
// nothing but the recovery middleware writes a 500.
package fixture

type writer struct{}

// API mirrors the engine interface the serving layer talks to.
type API interface {
	MapAd(name string) error
}

func httpError(w *writer, code int, msg string) {}

func fail(w *writer, err error) {}

func violatingDirect(a API, w *writer) {
	err := a.MapAd("x")
	if err != nil {
		httpError(w, 400, err.Error()) // want `engine API error passed to httpError, bypassing the error→status table`
	}
}

func violating500(w *writer) {
	httpError(w, 500, "boom") // want `httpError with status 500`
}

func conforming(a API, w *writer) {
	if err := a.MapAd("x"); err != nil {
		fail(w, err)
	}
	// 503 is legitimate: it is what the durability table maps to.
	httpError(w, 503, "journal unavailable")
	// Non-engine errors may use httpError freely.
	httpError(w, 400, "k must be a positive integer")
}

// conformingReuse reuses one err variable: the engine assignment flows to
// fail, then the same variable holds a parse error that may go to
// httpError. Taint follows the latest assignment, not the variable.
func conformingReuse(a API, w *writer, parse func() error) {
	err := a.MapAd("x")
	if err != nil {
		fail(w, err)
		return
	}
	err = parse()
	if err != nil {
		httpError(w, 400, err.Error())
	}
}

// annotated is the recovery-middleware exception.
func annotated(w *writer) {
	//caarlint:allow errstatus the recovery middleware owns 500
	httpError(w, 500, "internal server error")
}
