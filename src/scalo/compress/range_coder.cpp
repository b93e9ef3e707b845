#include "scalo/compress/range_coder.hpp"

#include "scalo/compress/lic.hpp"

#include <bit>

#include "scalo/util/logging.hpp"

namespace scalo::compress {

namespace {

constexpr std::uint32_t kTopValue = 1u << 24;
constexpr std::uint32_t kMaxTotal = 1u << 16;

} // namespace

MarkovModel::MarkovModel(unsigned alphabet_size, bool order1)
    : alphabet(alphabet_size), useContext(order1)
{
    SCALO_ASSERT(alphabet >= 2 && alphabet <= 64,
                 "alphabet out of range: ", alphabet);
    reset();
}

void
MarkovModel::reset()
{
    const unsigned contexts = useContext ? alphabet : 1;
    counts.assign(contexts, std::vector<std::uint32_t>(alphabet, 1));
    totals.assign(contexts, alphabet);
    context = 0;
}

std::uint32_t
MarkovModel::cumulative(unsigned symbol) const
{
    std::uint32_t acc = 0;
    for (unsigned s = 0; s < symbol; ++s)
        acc += counts[context][s];
    return acc;
}

std::uint32_t
MarkovModel::frequency(unsigned symbol) const
{
    SCALO_ASSERT(symbol < alphabet, "symbol ", symbol, " of ",
                 alphabet);
    return counts[context][symbol];
}

std::uint32_t
MarkovModel::total() const
{
    return totals[context];
}

unsigned
MarkovModel::find(std::uint32_t target) const
{
    std::uint32_t acc = 0;
    for (unsigned s = 0; s < alphabet; ++s) {
        acc += counts[context][s];
        if (target < acc)
            return s;
    }
    SCALO_PANIC("cumulative target out of range");
}

void
MarkovModel::update(unsigned symbol)
{
    SCALO_ASSERT(symbol < alphabet, "symbol out of range");
    counts[context][symbol] += 32;
    totals[context] += 32;
    if (totals[context] >= kMaxTotal) {
        // Halve (keeping minimum 1) to stay adaptive and within the
        // coder's precision budget.
        std::uint32_t total = 0;
        for (auto &c : counts[context]) {
            c = (c + 1) / 2;
            total += c;
        }
        totals[context] = total;
    }
    if (useContext)
        context = symbol;
}

void
RangeEncoder::encode(MarkovModel &model, unsigned symbol)
{
    const std::uint32_t total = model.total();
    const std::uint32_t cum = model.cumulative(symbol);
    const std::uint32_t freq = model.frequency(symbol);
    range /= total;
    low += static_cast<std::uint64_t>(cum) * range;
    range *= freq;
    normalize();
    model.update(symbol);
}

void
RangeEncoder::normalize()
{
    // Carry propagation + byte emission.
    while (true) {
        if (low >= (1ULL << 32)) {
            // Propagate the carry into already-emitted bytes.
            std::size_t i = bytes.size();
            while (i > 0 && bytes[i - 1] == 0xff)
                bytes[--i] = 0x00;
            SCALO_ASSERT(i > 0, "carry out of empty buffer");
            ++bytes[i - 1];
            low &= 0xffffffffULL;
        }
        if (range >= kTopValue)
            break;
        bytes.push_back(static_cast<std::uint8_t>(low >> 24));
        low = (low << 8) & 0xffffffffULL;
        range <<= 8;
    }
}

std::vector<std::uint8_t>
RangeEncoder::finish()
{
    // Flush the remaining 4 bytes of low.
    for (int i = 0; i < 4; ++i) {
        if (low >= (1ULL << 32)) {
            std::size_t j = bytes.size();
            while (j > 0 && bytes[j - 1] == 0xff)
                bytes[--j] = 0x00;
            SCALO_ASSERT(j > 0, "carry out of empty buffer");
            ++bytes[j - 1];
            low &= 0xffffffffULL;
        }
        bytes.push_back(static_cast<std::uint8_t>(low >> 24));
        low = (low << 8) & 0xffffffffULL;
    }
    return std::move(bytes);
}

RangeDecoder::RangeDecoder(const std::vector<std::uint8_t> &input)
    : data(&input)
{
    for (int i = 0; i < 4; ++i) {
        code = (code << 8) |
               (position < data->size() ? (*data)[position++] : 0);
    }
}

unsigned
RangeDecoder::decode(MarkovModel &model)
{
    const std::uint32_t total = model.total();
    range /= total;
    const std::uint32_t target = std::min(
        total - 1, static_cast<std::uint32_t>(
                       (code - static_cast<std::uint32_t>(low)) /
                       range));
    const unsigned symbol = model.find(target);
    const std::uint32_t cum = model.cumulative(symbol);
    const std::uint32_t freq = model.frequency(symbol);
    low += static_cast<std::uint64_t>(cum) * range;
    range *= freq;
    normalize();
    model.update(symbol);
    return symbol;
}

void
RangeDecoder::normalize()
{
    while (true) {
        if (low >= (1ULL << 32))
            low &= 0xffffffffULL;
        if (range >= kTopValue)
            break;
        code = (code << 8) |
               (position < data->size() ? (*data)[position++] : 0);
        low = (low << 8) & 0xffffffffULL;
        range <<= 8;
    }
}

TokenizedValue
tokenize(std::uint64_t zigzag)
{
    if (zigzag == 0)
        return {0, 0};
    const unsigned bits =
        64 - static_cast<unsigned>(std::countl_zero(zigzag));
    SCALO_ASSERT(bits < kTokenAlphabet, "value too wide: ", zigzag);
    return {bits, static_cast<std::uint32_t>(
                      zigzag - (1ULL << (bits - 1)))};
}

std::uint64_t
detokenize(unsigned token, std::uint32_t extra)
{
    if (token == 0)
        return 0;
    return (1ULL << (token - 1)) + extra;
}

std::vector<std::uint8_t>
neuralStreamCompress(const std::vector<Sample> &samples)
{
    // Stage 1: LIC residuals (second-order predictor, inline to keep
    // the token stream aligned with the extra-bit stream).
    std::vector<std::uint64_t> zigzags;
    zigzags.reserve(samples.size());
    std::int64_t prev1 = 0, prev2 = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        std::int64_t predicted = 0;
        if (i == 1)
            predicted = prev1;
        else if (i >= 2)
            predicted = 2 * prev1 - prev2;
        zigzags.push_back(
            zigzagEncode(static_cast<std::int64_t>(samples[i]) -
                         predicted));
        prev2 = prev1;
        prev1 = samples[i];
    }

    // Stage 2+3: TOK tokens through the MA+RC entropy coder; extra
    // bits raw into a bit stream.
    MarkovModel model(kTokenAlphabet, /*order1=*/true);
    RangeEncoder encoder;
    BitWriter extras;
    for (std::uint64_t z : zigzags) {
        const TokenizedValue tv = tokenize(z);
        encoder.encode(model, tv.token);
        if (tv.token > 1)
            extras.putBits(tv.extra, tv.token - 1);
    }
    const auto coded = encoder.finish();
    const auto extra_bytes = extras.take();

    // Layout: [coded size (4B)] [coded] [extras].
    std::vector<std::uint8_t> out;
    out.reserve(4 + coded.size() + extra_bytes.size());
    const auto coded_size = static_cast<std::uint32_t>(coded.size());
    for (int i = 3; i >= 0; --i)
        out.push_back(static_cast<std::uint8_t>(
            (coded_size >> (8 * i)) & 0xff));
    out.insert(out.end(), coded.begin(), coded.end());
    out.insert(out.end(), extra_bytes.begin(), extra_bytes.end());
    return out;
}

std::vector<Sample>
neuralStreamDecompress(const std::vector<std::uint8_t> &data,
                       std::size_t count)
{
    SCALO_ASSERT(data.size() >= 4, "truncated stream");
    std::uint32_t coded_size = 0;
    for (int i = 0; i < 4; ++i)
        coded_size = (coded_size << 8) |
                     data[static_cast<std::size_t>(i)];
    SCALO_ASSERT(4 + coded_size <= data.size(), "truncated stream");

    const std::vector<std::uint8_t> coded(
        data.begin() + 4, data.begin() + 4 + coded_size);
    const std::vector<std::uint8_t> extra_bytes(
        data.begin() + 4 + coded_size, data.end());

    MarkovModel model(kTokenAlphabet, /*order1=*/true);
    RangeDecoder decoder(coded);
    BitReader extras(extra_bytes);

    std::vector<Sample> out;
    out.reserve(count);
    std::int64_t prev1 = 0, prev2 = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const unsigned token = decoder.decode(model);
        std::uint32_t extra = 0;
        if (token > 1)
            extra = static_cast<std::uint32_t>(
                extras.getBits(token - 1));
        const std::int64_t residual =
            zigzagDecode(detokenize(token, extra));
        std::int64_t predicted = 0;
        if (i == 1)
            predicted = prev1;
        else if (i >= 2)
            predicted = 2 * prev1 - prev2;
        const std::int64_t x = predicted + residual;
        SCALO_ASSERT(x >= -32'768 && x <= 32'767,
                     "corrupt neural stream: sample ", x);
        out.push_back(static_cast<Sample>(x));
        prev2 = prev1;
        prev1 = x;
    }
    return out;
}

} // namespace scalo::compress
