#include "sql/normalizer.h"

#include <string_view>

#include "common/hash.h"

namespace imon::sql {

namespace {

bool IsLiteralToken(const Token& t) {
  if (t.type == TokenType::kInteger || t.type == TokenType::kFloat ||
      t.type == TokenType::kString) {
    return true;
  }
  return t.type == TokenType::kKeyword && (t.text == "true" || t.text == "false");
}

/// Builds the template text.
class TextSink {
 public:
  void Emit(std::string_view token) {
    if (!text_.empty()) text_.push_back(' ');
    text_.append(token);
  }
  std::string Take() { return std::move(text_); }

 private:
  std::string text_;
};

/// FNV-1a over the bytes TextSink would build, without building them.
class HashSink {
 public:
  void Emit(std::string_view token) {
    if (!first_) Byte(' ');
    first_ = false;
    for (char c : token) Byte(c);
  }
  uint64_t Fingerprint() const { return Mix64(hash_); }

 private:
  void Byte(char c) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= kFnvPrime;
  }

  uint64_t hash_ = kFnvOffsetBasis;
  bool first_ = true;
};

/// The canonicalization rules (normalizer.h), in one streaming pass over
/// the tokens. Literals become `?` as they arrive; an `in (` run is held
/// while it alternates `?`/`,` and collapses to `in ( ? )` at its `)`;
/// `;` tokens are held until a later token shows they are not trailing.
/// Only the text of a canonical token matters past the literal fold:
/// `?`, `in` and the symbols cannot be spelled by any other token.
template <typename Sink>
class Canonicalizer {
 public:
  explicit Canonicalizer(Sink* sink) : sink_(sink) {}

  /// Feeds every token; returns the number of literals replaced.
  size_t Run(const std::vector<Token>& toks) {
    bool prev_ends_expression = false;
    for (size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.type == TokenType::kEnd) break;
      // A `-` or `+` directly before a non-string literal is a unary sign
      // (folded into the placeholder) unless the previous canonical token
      // could end an expression.
      bool sign = t.type == TokenType::kSymbol &&
                  (t.text == "-" || t.text == "+") && i + 1 < toks.size() &&
                  IsLiteralToken(toks[i + 1]) &&
                  toks[i + 1].type != TokenType::kString &&
                  !prev_ends_expression;
      if (sign || IsLiteralToken(t)) {
        ++literals_;
        i += sign ? 1 : 0;
        prev_ends_expression = true;
        CollapseIn("?");
        continue;
      }
      // Identifiers and `)` can be left operands; keywords and all other
      // symbols cannot.
      prev_ends_expression = t.type == TokenType::kIdentifier || t.text == ")";
      CollapseIn(t.text);
    }
    ReleaseIn();  // a run still open at the end is not an IN-list
    return literals_;  // held `;`s are trailing: dropped
  }

 private:
  /// The `held`-th token of an `in ( ?, ?, ...` run.
  static std::string_view Held(size_t held) {
    if (held == 0) return "in";
    if (held == 1) return "(";
    return held % 2 == 0 ? "?" : ",";
  }

  /// `in ( ?, ?, ... )` -> `in ( ? )` when every element is a placeholder.
  /// VALUES lists keep their arity (column count matters).
  void CollapseIn(std::string_view token) {
    if (token == Held(held_)) {
      ++held_;
    } else if (token == ")" && held_ >= 3 && held_ % 2 == 1) {
      held_ = 0;
      for (const char* t : {"in", "(", "?", ")"}) HoldSemicolons(t);
    } else if (held_ == 0) {
      HoldSemicolons(token);
    } else {
      // Not an all-placeholder IN-list: release it verbatim, then take
      // this token afresh (it may open a run of its own).
      ReleaseIn();
      CollapseIn(token);
    }
  }

  void ReleaseIn() {
    for (size_t k = 0; k < held_; ++k) HoldSemicolons(Held(k));
    held_ = 0;
  }

  /// A trailing statement terminator carries no shape information.
  void HoldSemicolons(std::string_view token) {
    if (token == ";") {
      ++semicolons_;
      return;
    }
    for (; semicolons_ > 0; --semicolons_) sink_->Emit(";");
    sink_->Emit(token);
  }

  Sink* sink_;
  size_t literals_ = 0;
  size_t held_ = 0;  // tokens of an open `in (` run
  size_t semicolons_ = 0;
};

}  // namespace

uint64_t TemplateFingerprint(const std::vector<Token>& tokens) {
  HashSink sink;
  Canonicalizer<HashSink>(&sink).Run(tokens);
  return sink.Fingerprint();
}

NormalizedStatement NormalizeStatement(const std::string& text) {
  NormalizedStatement out;
  auto tokens = Tokenize(text);
  if (!tokens.ok()) {
    out.template_text = text;
    out.fingerprint = Mix64(HashStatement(text));
    out.normalized = false;
    return out;
  }
  TextSink sink;
  out.literal_count = Canonicalizer<TextSink>(&sink).Run(*tokens);
  out.template_text = sink.Take();
  out.fingerprint = Mix64(HashStatement(out.template_text));
  out.normalized = true;
  return out;
}

}  // namespace imon::sql
