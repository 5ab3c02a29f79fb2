#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "netbase/error.hpp"

namespace aio::net {

/// Failure payload of an Expected: a human-readable message plus a coarse
/// category mirroring the AioError exception taxonomy, so callers that do
/// want to rethrow can pick the right subtype.
struct Error {
    enum class Kind {
        Precondition, ///< caller violated a documented precondition
        Parse,        ///< input text failed to parse
        NotFound,     ///< a lookup missed (unknown cable, country, ...)
        Transient,    ///< expected to clear on its own; retry is sane
    };

    Kind kind = Kind::Precondition;
    std::string message;

    [[nodiscard]] static Error precondition(std::string message) {
        return Error{Kind::Precondition, std::move(message)};
    }
    [[nodiscard]] static Error notFound(std::string message) {
        return Error{Kind::NotFound, std::move(message)};
    }
    [[nodiscard]] static Error parse(std::string message) {
        return Error{Kind::Parse, std::move(message)};
    }

    /// Throws the AioError subtype matching `kind`. Bridges Expected
    /// results back into the exception-based call sites
    /// (Expected::valueOrRaise and the throwing constructors).
    [[noreturn]] void raise() const {
        switch (kind) {
        case Kind::Parse:
            throw ParseError{message};
        case Kind::NotFound:
            throw NotFoundError{message};
        case Kind::Transient:
            throw TransientError{message};
        case Kind::Precondition:
            break;
        }
        throw PreconditionError{message};
    }
};

/// Minimal result type for fallible API entry points: either a T or an
/// Error. Unlike AIO_EXPECTS (which throws), an Expected lets a batch
/// caller — the scenario sweep above all — degrade one malformed item
/// instead of aborting the whole batch.
///
/// Accessing value() on an error (or error() on a value) throws
/// PreconditionError; check with hasValue()/operator bool first.
template <typename T, typename E = Error>
class [[nodiscard]] Expected {
public:
    Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
    Expected(E error) : state_(std::in_place_index<1>, std::move(error)) {}

    [[nodiscard]] bool hasValue() const { return state_.index() == 0; }
    [[nodiscard]] explicit operator bool() const { return hasValue(); }

    [[nodiscard]] const T& value() const& {
        AIO_EXPECTS(hasValue(), "Expected holds an error, not a value");
        return std::get<0>(state_);
    }
    [[nodiscard]] T& value() & {
        AIO_EXPECTS(hasValue(), "Expected holds an error, not a value");
        return std::get<0>(state_);
    }
    [[nodiscard]] T&& value() && {
        AIO_EXPECTS(hasValue(), "Expected holds an error, not a value");
        return std::get<0>(std::move(state_));
    }

    [[nodiscard]] const E& error() const {
        AIO_EXPECTS(!hasValue(), "Expected holds a value, not an error");
        return std::get<1>(state_);
    }

    /// value(), but raising the matching AioError subtype on failure —
    /// the bridge for callers that still speak exceptions.
    [[nodiscard]] const T& valueOrRaise() const& {
        if (!hasValue()) {
            std::get<1>(state_).raise();
        }
        return std::get<0>(state_);
    }
    [[nodiscard]] T&& valueOrRaise() && {
        if (!hasValue()) {
            std::get<1>(state_).raise();
        }
        return std::get<0>(std::move(state_));
    }

    [[nodiscard]] const T& operator*() const& { return value(); }

private:
    std::variant<T, E> state_;
};

/// Expected<void>: success carries no payload. `ok()` builds the success
/// state; the error constructor mirrors the primary template.
template <typename E>
class [[nodiscard]] Expected<void, E> {
public:
    Expected(E error) : error_(std::in_place, std::move(error)) {}

    [[nodiscard]] static Expected ok() { return Expected{Tag{}}; }

    [[nodiscard]] bool hasValue() const { return !error_.has_value(); }
    [[nodiscard]] explicit operator bool() const { return hasValue(); }

    [[nodiscard]] const E& error() const {
        AIO_EXPECTS(!hasValue(), "Expected holds a value, not an error");
        return *error_;
    }

private:
    struct Tag {};
    explicit Expected(Tag) {}
    std::optional<E> error_;
};

} // namespace aio::net
