#include "lexer.hpp"

#include <cctype>

namespace draglint {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

/// Three-character and two-character punctuators we must not split: splitting
/// "->" into '-' '>' would make rule matching on neighbors unreliable.
const char* const kPunct3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPunct2[] = {"::", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->",
                               "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                               ".*", "##"};

/// A raw-string d-char: anything but parentheses, backslash and whitespace
/// ([lex.string]); the standard also caps the delimiter at 16 characters.
bool is_raw_delim_char(char c) {
  return c != '(' && c != ')' && c != '\\' && c != '"' && c != ' ' && c != '\t' && c != '\n' &&
         c != '\r' && c != '\v' && c != '\f';
}

/// Parses a `draglint:allow(RULE reason)` directive out of a comment body.
/// Returns false when the comment is not an allow directive at all.
bool parse_allow(const std::string& comment, AllowDirective* out) {
  const std::string tag = "draglint:allow(";
  const std::size_t at = comment.find(tag);
  if (at == std::string::npos) return false;
  const std::size_t open = at + tag.size();
  const std::size_t close = comment.find(')', open);
  const std::string body =
      comment.substr(open, close == std::string::npos ? std::string::npos : close - open);
  std::size_t space = body.find_first_of(" \t");
  if (space == std::string::npos) {
    out->rule_id = body;
    out->reason.clear();
  } else {
    out->rule_id = body.substr(0, space);
    const std::size_t reason_at = body.find_first_not_of(" \t", space);
    out->reason = reason_at == std::string::npos ? std::string() : body.substr(reason_at);
  }
  return true;
}

}  // namespace

bool is_float_literal(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  const std::string& t = token.text;
  const bool hex = t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X');
  if (t.find('.') != std::string::npos) return true;
  if (hex) return t.find('p') != std::string::npos || t.find('P') != std::string::npos;
  return t.find('e') != std::string::npos || t.find('E') != std::string::npos;
}

LexedFile lex(const std::string& path, const std::string& text) {
  LexedFile file;
  file.path = path;
  std::size_t i = 0;
  const std::size_t n = text.size();
  int line = 1;
  bool in_preproc = false;
  bool line_has_code = false;  // non-comment token seen on the current line

  auto newline = [&] {
    ++line;
    line_has_code = false;
    if (in_preproc) in_preproc = false;
  };

  auto record_comment = [&](const std::string& body, int comment_line) {
    AllowDirective allow;
    if (parse_allow(body, &allow)) {
      allow.line = comment_line;
      allow.alone_on_line = !line_has_code;
      file.allows.push_back(allow);
    }
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      // A backslash-continued preprocessor line stays "in" the directive.
      const bool continued = in_preproc && i > 0 && text[i - 1] == '\\';
      ++line;
      line_has_code = false;
      if (!continued) in_preproc = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t end = text.find('\n', i);
      const std::string body =
          text.substr(i + 2, end == std::string::npos ? std::string::npos : end - i - 2);
      record_comment(body, line);
      i = end == std::string::npos ? n : end;  // leave '\n' for the loop
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      const std::size_t end = text.find("*/", i + 2);
      const std::string body =
          text.substr(i + 2, end == std::string::npos ? std::string::npos : end - i - 2);
      record_comment(body, start_line);
      const std::size_t stop = end == std::string::npos ? n : end + 2;
      for (std::size_t k = i; k < stop; ++k)
        if (text[k] == '\n') newline();
      i = stop;
      continue;
    }
    if (c == '#' && !line_has_code) {
      in_preproc = true;
      file.tokens.push_back({TokenKind::kPunct, "#", line, true});
      line_has_code = true;
      ++i;
      continue;
    }
    // Raw string literal: (prefix)R"delim( ... )delim".  The delimiter must
    // be made of valid d-chars, at most 16 of them, with the `(` on the same
    // line — `R"%d"` (an R macro glued to a format string) is NOT a raw
    // string, and treating it as one used to swallow everything up to the
    // next `(` in the file, hiding real findings behind a phantom literal.
    if (c == 'R' || ((c == 'u' || c == 'U' || c == 'L') && i + 1 < n &&
                     (text[i + 1] == 'R' ||
                      (text[i + 1] == '8' && i + 2 < n && text[i + 2] == 'R')))) {
      std::size_t r = i;
      while (r < n && text[r] != 'R' && r - i < 3) ++r;
      if (r < n && text[r] == 'R' && r + 1 < n && text[r + 1] == '"') {
        std::size_t delim_end = r + 2;
        while (delim_end < n && delim_end - (r + 2) <= 16 && is_raw_delim_char(text[delim_end]))
          ++delim_end;
        if (delim_end < n && text[delim_end] == '(' && delim_end - (r + 2) <= 16) {
          const std::string close = ")" + text.substr(r + 2, delim_end - r - 2) + "\"";
          const std::size_t end = text.find(close, delim_end);
          const std::size_t stop = end == std::string::npos ? n : end + close.size();
          const int start_line = line;
          const bool preproc = in_preproc;
          for (std::size_t k = i; k < stop; ++k)
            if (text[k] == '\n') newline();
          file.tokens.push_back(
              {TokenKind::kString, text.substr(i, stop - i), start_line, preproc});
          line_has_code = true;
          i = stop;
          continue;
        }
        // Malformed delimiter: fall through — `R` lexes as (part of) an
        // identifier and the quote opens an ordinary string literal.
      }
    }
    // Ordinary string / char literal (with optional encoding prefix handled
    // by falling through from the identifier branch below).
    if (c == '"' || c == '\'') {
      const char quote = c;
      const int start_line = line;
      int continuations = 0;  // backslash-newline splices inside the literal
      std::size_t j = i + 1;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) {
          // An escape sequence — including `\<newline>` line splicing, which
          // continues the literal on the next source line rather than ending
          // the token (the old lexer broke here and re-lexed literal text as
          // code, inventing findings out of string contents).
          if (text[j + 1] == '\n') ++continuations;
          ++j;
        } else if (text[j] == '\n') {
          break;  // unterminated: stop at end of line
        }
        ++j;
      }
      const std::size_t stop = j < n && text[j] == quote ? j + 1 : j;
      file.tokens.push_back({quote == '"' ? TokenKind::kString : TokenKind::kChar,
                             text.substr(i, stop - i), start_line, in_preproc});
      // Spliced newlines advance the line counter but keep the directive
      // state: a backslash-newline continues a #define rather than ending it.
      line += continuations;
      line_has_code = true;
      i = stop;
      continue;
    }
    // pp-number: digits, '.', exponent signs, hex, digit separators.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      std::size_t j = i + 1;
      while (j < n) {
        const char d = text[j];
        if (d == '\'') {
          // Digit separator: only valid between alphanumerics (`1'000'000`,
          // `0xFF'FF`).  A bare apostrophe after a number opens a character
          // literal — consuming it used to glue `1'b'` into one number token.
          if (j + 1 < n && std::isalnum(static_cast<unsigned char>(text[j + 1]))) {
            j += 2;
          } else {
            break;
          }
        } else if (ident_char(d) || d == '.') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (text[j - 1] == 'e' || text[j - 1] == 'E' || text[j - 1] == 'p' ||
                    text[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      file.tokens.push_back({TokenKind::kNumber, text.substr(i, j - i), line, in_preproc});
      line_has_code = true;
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(text[j])) ++j;
      // Encoding-prefixed literal, e.g. u8"..." or L'x'.
      if (j < n && (text[j] == '"' || text[j] == '\'')) {
        const std::string prefix = text.substr(i, j - i);
        if (prefix == "u" || prefix == "U" || prefix == "L" || prefix == "u8") {
          i = j;  // reprocess as a string/char literal, prefix dropped
          continue;
        }
      }
      file.tokens.push_back({TokenKind::kIdentifier, text.substr(i, j - i), line, in_preproc});
      line_has_code = true;
      i = j;
      continue;
    }
    // Punctuation, longest match first.
    std::string punct(1, c);
    for (const char* p : kPunct3)
      if (text.compare(i, 3, p) == 0) punct = p;
    if (punct.size() == 1)
      for (const char* p : kPunct2)
        if (text.compare(i, 2, p) == 0) punct = p;
    file.tokens.push_back({TokenKind::kPunct, punct, line, in_preproc});
    line_has_code = true;
    i += punct.size();
  }
  file.line_count = line;
  return file;
}

}  // namespace draglint
