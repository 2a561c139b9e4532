#include "analysis/source_model.hh"

#include <algorithm>

namespace morph::analysis
{

namespace
{

const char secretMarker[] = "MORPH_SECRET";

/** All MORPH_* annotation macros share this prefix; anything carrying
 *  it is skipped as a qualifier. */
bool
isAnnotationName(const std::string &s)
{
    return s.rfind("MORPH_", 0) == 0;
}

bool
isControlKeyword(const std::string &s)
{
    static const char *const kw[] = {
        "if",     "for",    "while",         "switch", "catch",
        "return", "sizeof", "alignof",       "decltype", "new",
        "delete", "throw",  "static_assert", "assert",
    };
    return std::any_of(std::begin(kw), std::end(kw),
                       [&](const char *k) { return s == k; });
}

/** Last identifier of a declarator token run: the declared name.
 *  Handles trailing `&` / `*` (unnamed params) and `[N]` arrays. */
std::string
declaratorName(const std::vector<Token> &tokens, std::size_t begin,
               std::size_t end)
{
    std::size_t last = end;
    while (last > begin) {
        --last;
        const Token &t = tokens[last];
        if (t.kind == Tok::Ident)
            return t.text;
        if (t.text == "]") {
            // Skip back over the bracket group to the element name.
            unsigned depth = 1;
            while (last > begin && depth > 0) {
                --last;
                if (tokens[last].text == "]")
                    ++depth;
                else if (tokens[last].text == "[")
                    --depth;
            }
            continue;
        }
        if (t.text == "&" || t.text == "*" || t.text == "." ||
            t.kind == Tok::Number)
            continue;
        break;
    }
    return {};
}

class ModelBuilder
{
  public:
    explicit ModelBuilder(const LexedSource &src) : src_(src)
    {
        model_.src = &src;
    }

    SourceModel
    run()
    {
        findFunctions();
        scanDeclarations();
        scanUnorderedNames();
        scanFileWaivers();
        return std::move(model_);
    }

  private:
    const std::vector<Token> &
    toks() const
    {
        return src_.tokens;
    }

    /** Token ranges [header, bodyEnd] already claimed by functions. */
    bool
    insideFunction(std::size_t idx) const
    {
        return std::any_of(
            model_.functions.begin(), model_.functions.end(),
            [&](const FunctionDef &f) {
                return idx >= f.headerBegin && idx <= f.bodyEnd;
            });
    }

    void
    findFunctions()
    {
        const auto &t = toks();
        std::size_t i = 0;
        while (i + 1 < t.size()) {
            // Operator overloads first: the generic Ident-then-paren
            // shape cannot see past the operator's symbol tokens.
            if (t[i].kind == Tok::Ident && t[i].text == "operator") {
                FunctionDef def;
                if (matchOperator(i, def)) {
                    const std::size_t next = def.bodyEnd + 1;
                    model_.functions.push_back(std::move(def));
                    i = next;
                    continue;
                }
            }
            if (t[i].kind == Tok::Ident && t[i + 1].text == "(" &&
                !isControlKeyword(t[i].text) &&
                !isAnnotationName(t[i].text) &&
                !(i > 0 &&
                  (t[i - 1].text == "." || t[i - 1].text == "->"))) {
                FunctionDef def;
                if (matchFunction(i, def)) {
                    const std::size_t next = def.bodyEnd + 1;
                    model_.functions.push_back(std::move(def));
                    i = next;
                    continue;
                }
            }
            ++i;
        }
    }

    /** Try to shape a function definition with its name at @p i. */
    bool
    matchFunction(std::size_t i, FunctionDef &def)
    {
        if (!matchFunctionShape(i, i + 1, def))
            return false;
        def.name = toks()[i].text;
        def.qualName = qualifiedName(i);
        return true;
    }

    /** Try to shape an operator-overload definition: `operator` at
     *  @p i, its symbol / conversion type, then the parameter list.
     *  Handles `operator==`, `operator()`, `operator[]`,
     *  `operator bool`, `operator std::size_t`, ... */
    bool
    matchOperator(std::size_t i, FunctionDef &def)
    {
        const auto &t = toks();
        if (i + 2 >= t.size())
            return false;
        std::string op;
        std::size_t open;
        if (t[i + 1].text == "(" && t[i + 2].text == ")") {
            op = "()";
            open = i + 3;
        } else if (t[i + 1].text == "[" && t[i + 2].text == "]") {
            op = "[]";
            open = i + 3;
        } else if (t[i + 1].kind == Tok::Punct) {
            // Symbol operators are one token: the lexer keeps ==, <=,
            // <<, ->, ... whole.
            op = t[i + 1].text;
            open = i + 2;
        } else {
            // Conversion (or new/delete) operator: the target type
            // runs up to the parameter list.
            std::size_t j = i + 1;
            while (j < t.size() && t[j].text != "(" &&
                   (t[j].kind == Tok::Ident || t[j].text == "::" ||
                    t[j].text == "*" || t[j].text == "&")) {
                if (!op.empty())
                    op += ' ';
                op += t[j].text;
                ++j;
            }
            if (op.empty())
                return false;
            op = " " + op;
            open = j;
        }
        if (open >= t.size() || t[open].text != "(")
            return false;
        if (!matchFunctionShape(i, open, def))
            return false;
        def.name = "operator" + op;
        def.qualName = qualifiedPrefix(i) + def.name;
        return true;
    }

    /** Shape the common tail of a function definition: parameter
     *  group at @p open, qualifiers / annotations / init list, body.
     *  @p name_idx is the token the definition is anchored on (the
     *  name, or `operator`). Fills everything but name/qualName. */
    bool
    matchFunctionShape(std::size_t name_idx, std::size_t open,
                       FunctionDef &def)
    {
        const auto &t = toks();
        const std::size_t close = matchGroup(t, open);
        if (close >= t.size())
            return false;

        std::size_t j = close + 1;
        // Qualifiers, annotations, trailing return, constructor init
        // list — then '{'.
        while (j < t.size()) {
            const std::string &s = t[j].text;
            if (s == "const" || s == "override" || s == "final" ||
                s == "mutable" || s == "&" || s == "&&") {
                ++j;
                continue;
            }
            if (t[j].kind == Tok::Ident && isAnnotationName(s)) {
                j = skipAnnotation(j) + 1;
                continue;
            }
            if (s == "noexcept" || s == "throw") {
                ++j;
                if (j < t.size() && t[j].text == "(") {
                    j = matchGroup(t, j);
                    if (j >= t.size())
                        return false;
                    ++j;
                }
                continue;
            }
            if (s == "->") {
                // Trailing return type: scan to the body brace.
                ++j;
                while (j < t.size() && t[j].text != "{" &&
                       t[j].text != ";")
                    ++j;
                continue;
            }
            if (s == ":") {
                if (!skipInitList(j))
                    return false;
                continue;
            }
            break;
        }
        if (j >= t.size() || t[j].text != "{")
            return false;

        const std::size_t body_end = matchGroup(t, j);
        if (body_end >= t.size())
            return false;

        def.headerBegin = headerStart(name_idx);
        def.bodyBegin = j;
        def.bodyEnd = body_end;
        def.line = t[name_idx].line;
        def.secretReturn = returnIsSecret(def.headerBegin, name_idx);
        parseParams(open, close, def);
        return true;
    }

    /** Constructor member-init list: `: a_(x), b_{y} ... {`. Leaves
     *  @p j on the body '{'. */
    bool
    skipInitList(std::size_t &j)
    {
        const auto &t = toks();
        ++j; // ':'
        while (j < t.size()) {
            // Initializer name (possibly qualified / templated).
            while (j < t.size() && t[j].text != "(" &&
                   t[j].text != "{" && t[j].text != ";")
                ++j;
            if (j >= t.size() || t[j].text == ";")
                return false;
            // A '{' directly here could be the body (empty init name
            // cannot happen, so '{' after a name is a brace init —
            // distinguish by what follows the matched group).
            const std::size_t group_close = matchGroup(t, j);
            if (group_close >= t.size())
                return false;
            const std::size_t after = group_close + 1;
            if (after < t.size() && t[after].text == ",") {
                j = after + 1;
                continue;
            }
            // Init list exhausted: the body brace must follow.
            j = after;
            return j < t.size() && t[j].text == "{";
        }
        return false;
    }

    /** Skip the MORPH_* annotation at @p i; returns the last token
     *  index it spans (the macro name, or its closing ')'). */
    std::size_t
    skipAnnotation(std::size_t i) const
    {
        const auto &t = toks();
        if (i + 1 < t.size() && t[i + 1].text == "(") {
            const std::size_t close = matchGroup(t, i + 1);
            if (close < t.size())
                return close;
        }
        return i;
    }

    std::string
    qualifiedName(std::size_t i) const
    {
        return qualifiedPrefix(i) + toks()[i].text;
    }

    /** The `Outer::` qualification chain written before token @p i
     *  ("" when unqualified). */
    std::string
    qualifiedPrefix(std::size_t i) const
    {
        const auto &t = toks();
        std::string prefix;
        while (i >= 2 && t[i - 1].text == "::" &&
               t[i - 2].kind == Tok::Ident) {
            prefix = t[i - 2].text + "::" + prefix;
            i -= 2;
        }
        return prefix;
    }

    /** First token of the declaration containing the name at @p i. */
    std::size_t
    headerStart(std::size_t i) const
    {
        const auto &t = toks();
        std::size_t j = i;
        while (j >= 2 && t[j - 1].text == "::" &&
               t[j - 2].kind == Tok::Ident)
            j -= 2;
        while (j > 0) {
            const std::string &s = t[j - 1].text;
            if (s == ";" || s == "}" || s == "{" || s == ":" ||
                s == ")" || s == ",")
                break;
            --j;
        }
        return j;
    }

    bool
    returnIsSecret(std::size_t begin, std::size_t name_idx) const
    {
        const auto &t = toks();
        for (std::size_t j = begin; j < name_idx; ++j)
            if (t[j].text == secretMarker)
                return true;
        return false;
    }

    void
    parseParams(std::size_t open, std::size_t close, FunctionDef &def)
    {
        const auto &t = toks();
        std::size_t begin = open + 1;
        int paren = 0, angle = 0, brace = 0;
        for (std::size_t j = begin; j <= close; ++j) {
            const std::string &s = t[j].text;
            const bool at_end = j == close;
            if (!at_end) {
                if (s == "(" || s == "[")
                    ++paren;
                else if (s == ")" || s == "]")
                    --paren;
                else if (s == "{")
                    ++brace;
                else if (s == "}")
                    --brace;
                else if (s == "<")
                    ++angle;
                else if (s == ">" && angle > 0)
                    --angle;
                else if (s == ">>" && angle > 0)
                    angle = angle >= 2 ? angle - 2 : 0;
            }
            if (at_end ||
                (s == "," && paren == 0 && angle == 0 && brace == 0)) {
                if (j > begin)
                    addParam(begin, j, def);
                begin = j + 1;
            }
        }
    }

    void
    addParam(std::size_t begin, std::size_t end, FunctionDef &def)
    {
        const auto &t = toks();
        Param param;
        std::size_t name_end = end;
        for (std::size_t j = begin; j < end; ++j) {
            if (t[j].text == secretMarker)
                param.secret = true;
            if (t[j].text == "=") {
                name_end = j;
                break;
            }
            if (t[j].text == "...")
                return; // variadic marker, not a parameter
        }
        if (end - begin == 1 && t[begin].text == "void")
            return;
        param.name = declaratorName(t, begin, name_end);
        // An unnamed parameter whose "name" is really the type: the
        // final token being '&' or '*' means no declarator followed.
        if (name_end > begin) {
            const std::string &tail = t[name_end - 1].text;
            if (tail == "&" || tail == "*" || tail == "&&")
                param.name.clear();
        }
        def.params.push_back(std::move(param));
    }

    void
    scanDeclarations()
    {
        const auto &t = toks();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].text != secretMarker || insideFunction(i))
                continue;
            // Scan the declarator; a '(' before any terminator means
            // this annotates a function declaration's return type.
            // Template arguments (commas, parens inside <>) are part
            // of the type, not terminators.
            std::size_t j = i + 1;
            bool is_function = false;
            std::string type_text;
            int angle = 0;
            while (j < t.size()) {
                const std::string &s = t[j].text;
                if (t[j].kind == Tok::Ident) {
                    if (!type_text.empty())
                        type_text += ' ';
                    type_text += s;
                }
                if (s == "<") {
                    ++angle;
                } else if (s == ">") {
                    if (angle > 0)
                        --angle;
                } else if (s == ">>") {
                    angle = angle >= 2 ? angle - 2 : 0;
                } else if (angle == 0) {
                    if (s == ";" || s == "=" || s == "{" || s == "," ||
                        s == ")")
                        break;
                    if (s == "(") {
                        is_function = true;
                        break;
                    }
                }
                ++j;
            }
            if (j >= t.size())
                continue;
            if (t[j].text == "," || t[j].text == ")") {
                recordDeclParam(i, j);
                continue;
            }
            if (is_function) {
                const std::string fn = declaratorName(t, i + 1, j);
                if (!fn.empty())
                    model_.secretReturnDecls.insert(fn);
                continue;
            }
            SecretDecl decl;
            decl.name = declaratorName(t, i + 1, j);
            decl.typeText = type_text;
            decl.line = t[i].line;
            if (!decl.name.empty())
                model_.secretDecls.push_back(std::move(decl));
        }
    }

    /** MORPH_SECRET at @p marker annotates a parameter of a function
     *  declaration (the declarator scan hit ',' or ')'): find the
     *  enclosing call parens, the function name, and the zero-based
     *  parameter index of the annotation. */
    void
    recordDeclParam(std::size_t marker, std::size_t name_end)
    {
        const auto &t = toks();
        // Walk back to the unmatched '(' that opens the parameter list.
        std::size_t open = marker;
        int depth = 0;
        while (open > 0) {
            --open;
            const std::string &s = t[open].text;
            if (s == ")" || s == "]" || s == "}") {
                ++depth;
            } else if (s == "(" || s == "[" || s == "{") {
                if (depth == 0) {
                    if (s != "(")
                        return;
                    break;
                }
                --depth;
            } else if (s == ";") {
                return;
            }
        }
        if (open == 0 || t[open - 1].kind != Tok::Ident)
            return;
        const std::string fname = t[open - 1].text;
        // Parameter index: commas at depth 0 before the marker.
        std::size_t index = 0;
        depth = 0;
        for (std::size_t k = open + 1; k < marker; ++k) {
            const std::string &s = t[k].text;
            if (s == "(" || s == "[" || s == "{" || s == "<")
                ++depth;
            else if (s == ")" || s == "]" || s == "}" ||
                     (s == ">" && depth > 0))
                --depth;
            else if (s == "," && depth == 0)
                ++index;
        }
        (void)name_end;
        model_.secretParamDecls[fname].insert(index);
    }

    void
    scanUnorderedNames()
    {
        const auto &t = toks();
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].text != "unordered_map" &&
                t[i].text != "unordered_set")
                continue;
            // Back up to the start of the enclosing declaration...
            std::size_t begin = i;
            while (begin > 0) {
                const std::string &s = t[begin - 1].text;
                if (s == ";" || s == "{" || s == "}" || s == "(" ||
                    s == "," || s == ":")
                    break;
                --begin;
            }
            // ...then forward across the template arguments to the
            // declarator, tracking angle depth (">>" closes two).
            int angle = 0;
            std::size_t j = begin;
            for (; j < t.size(); ++j) {
                const std::string &s = t[j].text;
                if (s == "<") {
                    ++angle;
                } else if (s == ">") {
                    if (angle > 0)
                        --angle;
                } else if (s == ">>") {
                    angle = angle >= 2 ? angle - 2 : 0;
                } else if (angle == 0 &&
                           (s == ";" || s == "=" || s == "{" ||
                            s == "," || s == ")" || s == "(")) {
                    break;
                }
            }
            const std::string name = declaratorName(t, begin, j);
            if (!name.empty())
                model_.unorderedNames.insert(name);
        }
    }

    void
    scanFileWaivers()
    {
        for (const auto &entry : src_.comments) {
            const std::string &text = entry.second;
            std::size_t pos = 0;
            while ((pos = text.find("allow-file(", pos)) !=
                   std::string::npos) {
                const std::size_t open = pos + 11;
                const std::size_t close = text.find(')', open);
                if (close == std::string::npos)
                    break;
                model_.fileWaivers.insert(
                    text.substr(open, close - open));
                pos = close;
            }
        }
    }

    const LexedSource &src_;
    SourceModel model_;
};

} // namespace

bool
SourceModel::waived(const std::string &rule, unsigned line) const
{
    if (fileWaivers.count(rule) != 0)
        return true;
    const std::string needle = "allow(" + rule + ")";
    if (src->commentOn(line).find(needle) != std::string::npos)
        return true;
    return line > 1 &&
           src->commentOn(line - 1).find(needle) != std::string::npos;
}

SourceModel
buildModel(const LexedSource &src)
{
    return ModelBuilder(src).run();
}

std::size_t
matchGroup(const std::vector<Token> &tokens, std::size_t open)
{
    const std::string &o = tokens[open].text;
    const char *closer = o == "(" ? ")" : o == "{" ? "}" : "]";
    unsigned depth = 0;
    for (std::size_t i = open; i < tokens.size(); ++i) {
        if (tokens[i].text == o)
            ++depth;
        else if (tokens[i].text == closer && --depth == 0)
            return i;
    }
    return tokens.size();
}

} // namespace morph::analysis
