// Statement normalizer: rewrites a SQL text into a canonical template by
// replacing literals with `?` placeholders, collapsing IN-lists, and
// canonicalizing whitespace/case, then derives a stable 64-bit fingerprint.
// Statements that differ only in literal values share one template, which is
// the unit of workload compression (per-template rolling aggregates replace
// raw per-execution rows past the monitor's ring window).
//
// The rules run as one streaming pass over the lexer's tokens that feeds
// either a hash sink (TemplateFingerprint) or a text sink
// (NormalizeStatement). The engine's front end takes every statement's
// fingerprint from the parser's tokens, without lexing the text a second
// time; only the monitor normalizes text, once per new template to store
// its template text (and in its text-only parse sensor).
//
// Canonicalization rules (documented in DESIGN.md §12):
//   - integer / float / string literals -> `?` (sign folded in when unary)
//   - `true` / `false` keyword literals -> `?`
//   - `IN ( ?, ?, ... )` with only literal elements -> `IN ( ? )`
//   - keywords and identifiers lower-cased (the lexer already does this)
//   - tokens joined by single spaces; comments and trailing `;` dropped
//   - `NULL` is kept verbatim: `IS NULL` is a predicate shape, not a literal

#ifndef IMON_SQL_NORMALIZER_H_
#define IMON_SQL_NORMALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sql/lexer.h"

namespace imon::sql {

struct NormalizedStatement {
  std::string template_text;  // canonical template, `?` for literals
  uint64_t fingerprint = 0;   // Mix64-finalized hash of template_text
  size_t literal_count = 0;   // literals replaced (before IN-list collapse)
  bool normalized = false;    // false: tokenize failed, raw text hashed as-is
};

/// Normalize `text`. Never fails: if the text does not tokenize, the raw
/// text becomes its own template (normalized=false) so malformed statements
/// still aggregate under a stable fingerprint.
NormalizedStatement NormalizeStatement(const std::string& text);

/// Template fingerprint of a tokenized statement (`tokens` as Tokenize
/// returns them): equal to NormalizeStatement(text).fingerprint for the
/// text the tokens came from, without building the template text.
uint64_t TemplateFingerprint(const std::vector<Token>& tokens);

}  // namespace imon::sql

#endif  // IMON_SQL_NORMALIZER_H_
