/**
 * @file
 * Shared serving-test fixture: the tiny conv net (weight seed 3,
 * 8x8x4 input) as a one-family ModelRegistry — the way every
 * single-model server is built.
 */

#ifndef TSP_TESTS_SERVE_TINY_MODEL_HH
#define TSP_TESTS_SERVE_TINY_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "model/resnet.hh"
#include "serve/model_registry.hh"

namespace tsp::test {

struct TinyModel
{
    static constexpr int kH = 8, kW = 8, kC = 4;

    serve::ModelRegistry reg;

    /** @param max_batch the largest batch the family compiles. */
    explicit TinyModel(int max_batch = 1) : reg({spec(max_batch)}) {}

    static std::vector<std::int8_t>
    randomInput(std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<std::int8_t> data(
            static_cast<std::size_t>(kH) * kW * kC);
        for (auto &v : data)
            v = static_cast<std::int8_t>(rng.intIn(-100, 100));
        return data;
    }

    const Graph &graph() const { return reg.cache(0).graph(); }

    ref::QTensor
    reference(const std::vector<std::int8_t> &input) const
    {
        ref::QTensor qin(kH, kW, kC);
        qin.data = input;
        return graph().runReference(qin).at(graph().outputNode());
    }

    /** @return the compiled batch-1 program (resident: the default
     * budget never evicts it). */
    const BatchProgram &program() const { return reg.cache(0).get(1); }

    /** A double-bit (uncorrectable) scheduled fault pair on the first
     *  word of the model input — a word every inference reads. */
    std::vector<FaultEvent>
    poisonInputEvents() const
    {
        const GlobalAddr a = program().inputs[0].t.addrOf(0, 0, 0, 0);
        const int slice =
            (a.hem == Hemisphere::West ? 0 : kMemSlicesPerHem) +
            a.slice;
        return {{0, slice, a.addr, 0, 1}, {0, slice, a.addr, 0, 5}};
    }

  private:
    static serve::ModelSpec
    spec(int max_batch)
    {
        serve::ModelSpec sp;
        sp.name = "tiny";
        sp.graph = model::buildTinyNet(3, kH, kW, kC);
        // Placeholder input compiled into the image; requests
        // overwrite it before every run.
        sp.warmInput = randomInput(7);
        sp.maxBatch = max_batch;
        return sp;
    }
};

} // namespace tsp::test

#endif // TSP_TESTS_SERVE_TINY_MODEL_HH
