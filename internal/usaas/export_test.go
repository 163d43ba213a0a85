package usaas

import (
	"fmt"
	"slices"

	"usersignals/internal/newswire"
	"usersignals/internal/social"
)

// What the tests of package usaas_test — those that drive a coordinator,
// which imports this package — may see of its insides.

// MaxEngViews is the bound on each kind of registered view.
const MaxEngViews = maxEngViews

// RegisteredViews lists the keys of the store's registered dose,
// confounder and experience views, each kind sorted.
func (s *Store) RegisteredViews() (kinds [3][]string) {
	s.sessMu.RLock()
	defer s.sessMu.RUnlock()
	for k := range s.views.eng {
		kinds[0] = append(kinds[0], fmt.Sprint(k))
	}
	for k := range s.views.conf {
		kinds[1] = append(kinds[1], k.String())
	}
	for k := range s.views.exp {
		kinds[2] = append(kinds[2], k)
	}
	for _, keys := range kinds {
		slices.Sort(keys)
	}
	return kinds
}

// GoldenSocialConfig is the golden vectors' social configuration and the
// news index built from it.
func GoldenSocialConfig() (social.Config, *newswire.Index) { return goldenSocialConfig() }
