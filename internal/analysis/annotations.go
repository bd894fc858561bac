package analysis

// The annotation registry: every comment marker the suite reacts to,
// in one place. Each marker is a waiver that silences one finding at
// one site (`// <marker> <reason>` on the finding's line or the line
// above; the reason is mandatory prose for the reviewer). README's
// "Annotations" table renders this registry and
// TestAnnotationsDocumented pins the two together, so a new marker
// cannot ship undocumented.

// Annotation is one registered comment marker.
type Annotation struct {
	Marker string // literal text looked for in comments
	Check  string // owning check
	Doc    string // one-line purpose, mirrored in README
}

// Annotations returns the registry in presentation order.
func Annotations() []Annotation {
	return []Annotation{
		{Marker: lifecycleMarker, Check: "golifecycle",
			Doc: "names the lifecycle mechanism of a goroutine the structural Done()/recover() rule cannot see"},
		{Marker: nopollMarker, Check: "nopoll",
			Doc: "justifies a sleep-in-loop where no blocking wait exists"},
	}
}
