// detlint fixture: SUP — a suppression naming a rule id detlint does not
// define is itself a finding, and it suppresses nothing.
#include <cstdlib>

int Draw() {
  // detlint: allow(D7, names a rule id this lint does not define)
  int draw = rand();
  return draw + rand();  // detlint: allow(d2, rule ids are case-sensitive)
}
